package tage

// statCorrector is a compact GEHL-style statistical corrector (the "SC" of
// TAGE-SC-L): a bias table plus history-indexed counter tables vote on
// low-confidence TAGE predictions, flipping them when the weighted sum
// clears an adaptive threshold. It corrects statistically biased branches
// that TAGE's strict history matching handles poorly.
type statCorrector struct {
	bias []int8 // indexed by PC
	g    [3][]int8
	// gTable selects which folded-history image feeds each g table; the
	// images are borrowed from the owning Tage's per-thread history.
	gTable    [3]int
	threshold int32
	tc        int8 // threshold-update hysteresis counter
}

const (
	defaultSCBiasEntries = 4096
	defaultSCGEntries    = 1024
	scCtrMax             = 31
	scCtrMin             = -32
)

func newStatCorrector(biasEntries, gEntries int) *statCorrector {
	if biasEntries&(biasEntries-1) != 0 || gEntries&(gEntries-1) != 0 {
		panic("tage: SC table sizes must be powers of two")
	}
	sc := &statCorrector{
		bias:      make([]int8, biasEntries),
		gTable:    [3]int{1, 2, 3},
		threshold: 6,
	}
	for i := range sc.g {
		sc.g[i] = make([]int8, gEntries)
	}
	return sc
}

func (sc *statCorrector) gIndex(i int, pc uint64, hs *History) uint64 {
	ti := sc.gTable[i]
	if ti >= len(hs.fold) {
		ti = len(hs.fold) - 1
	}
	return ((pc >> 1) ^ hs.fold[ti]&foldLaneMask ^ (pc >> 5)) & uint64(len(sc.g[i])-1)
}

// sum computes the corrector vote, centered so that each counter c
// contributes 2c+1 (avoiding a zero vote).
func (sc *statCorrector) sum(pc uint64, hs *History, tagePred bool) int32 {
	s := int32(0)
	if tagePred {
		s += 8 // the TAGE prediction itself gets a fixed weight
	} else {
		s -= 8
	}
	b := sc.bias[(pc>>1)&uint64(len(sc.bias)-1)]
	s += 2*int32(b) + 1
	for i := range sc.g {
		c := sc.g[i][sc.gIndex(i, pc, hs)]
		s += 2*int32(c) + 1
	}
	return s
}

// predict returns the corrector's direction and whether its confidence
// clears the adaptive threshold.
func (sc *statCorrector) predict(pc uint64, hs *History, tagePred bool) (bool, bool) {
	s := sc.sum(pc, hs, tagePred)
	if abs32(s) < sc.threshold {
		return tagePred, false
	}
	return s >= 0, true
}

// update trains the counters toward the outcome and adapts the threshold
// when the vote magnitude sits near it (Seznec's TC scheme).
func (sc *statCorrector) update(pc uint64, hs *History, taken, scPred bool) {
	s := sc.sum(pc, hs, taken)
	if scPred != taken {
		if sc.tc < 7 {
			sc.tc++
		}
		if sc.tc == 7 && sc.threshold < 64 {
			sc.threshold++
			sc.tc = 0
		}
	} else if abs32(s) < sc.threshold+2 {
		if sc.tc > -8 {
			sc.tc--
		}
		if sc.tc == -8 && sc.threshold > 4 {
			sc.threshold--
			sc.tc = 0
		}
	}
	bi := (pc >> 1) & uint64(len(sc.bias)-1)
	sc.bias[bi] = satUpdateWide(sc.bias[bi], taken)
	for i := range sc.g {
		gi := sc.gIndex(i, pc, hs)
		sc.g[i][gi] = satUpdateWide(sc.g[i][gi], taken)
	}
}

func satUpdateWide(c int8, taken bool) int8 {
	if taken {
		if c < scCtrMax {
			return c + 1
		}
		return c
	}
	if c > scCtrMin {
		return c - 1
	}
	return c
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func (sc *statCorrector) flush() {
	for i := range sc.bias {
		sc.bias[i] = 0
	}
	for i := range sc.g {
		for j := range sc.g[i] {
			sc.g[i][j] = 0
		}
	}
	sc.threshold = 6
	sc.tc = 0
}
