package tage

import "hybp/internal/rng"

// loopPredictor is the "L" of TAGE-SC-L: a small associative table that
// learns regular loop trip counts and predicts the loop-exit iteration
// exactly — the one pattern global-history predictors need exponential
// history to capture.
type loopPredictor struct {
	entries []loopEntry
	ways    int
	setMask uint64
	rand    *rng.Rand
}

type loopEntry struct {
	tag      uint16
	pastIter uint16
	currIter uint16
	conf     uint8
	age      uint8
	dir      bool // body direction (the direction taken while iterating)
	valid    bool
}

const (
	defaultLoopSets = 16
	loopWays        = 4
	loopConfMax     = 3
	loopAgeMax      = 7
	loopIterMax     = 1023
	// loopEntryBits is one entry's storage: tag(10) + past(10) + curr(10)
	// + conf(2) + age(3) + dir(1) + valid(1).
	loopEntryBits = 37
)

func newLoopPredictor(seed uint64, sets int) *loopPredictor {
	if sets&(sets-1) != 0 {
		panic("tage: loop predictor sets must be a power of two")
	}
	return &loopPredictor{
		entries: make([]loopEntry, sets*loopWays),
		ways:    loopWays,
		setMask: uint64(sets - 1),
		rand:    rng.New(seed),
	}
}

func (lp *loopPredictor) indexTag(pc uint64) (int, uint16) {
	h := (pc >> 1) ^ (pc >> 5) ^ (pc >> 11)
	set := int(h & lp.setMask)
	tag := uint16((pc >> 3) & 0x3FF)
	return set, tag
}

func (lp *loopPredictor) find(pc uint64) *loopEntry {
	set, tag := lp.indexTag(pc)
	for w := 0; w < lp.ways; w++ {
		e := &lp.entries[set*lp.ways+w]
		if e.valid && e.tag == tag {
			return e
		}
	}
	return nil
}

// predict returns (direction, entryFound, confident).
func (lp *loopPredictor) predict(pc uint64) (bool, bool, bool) {
	e := lp.find(pc)
	if e == nil {
		return false, false, false
	}
	pred := e.dir
	if e.pastIter != 0 && e.currIter >= e.pastIter {
		pred = !e.dir // predict the exit iteration exactly
	}
	return pred, true, e.conf >= loopConfMax && e.pastIter != 0
}

// update trains the loop entry with the resolved outcome. tagePred is the
// TAGE prediction; an allocation is attempted when TAGE mispredicted, the
// standard SC-L trigger.
func (lp *loopPredictor) update(pc uint64, taken, tagePred bool) {
	if e := lp.find(pc); e != nil {
		if taken == e.dir {
			if e.currIter < loopIterMax {
				e.currIter++
			} else {
				// Too long to track; retire the entry.
				*e = loopEntry{}
				return
			}
			if e.pastIter != 0 && e.currIter > e.pastIter {
				// Ran past the learned trip count: mistrained.
				e.conf = 0
				e.pastIter = 0
			}
		} else {
			// Loop exit observed.
			if e.currIter == 0 {
				// Two exits with no body iterations between them: the
				// entry's direction is mis-oriented or the branch is not
				// a loop; retire it.
				*e = loopEntry{}
				return
			}
			if e.currIter == e.pastIter && e.pastIter != 0 {
				if e.conf < loopConfMax {
					e.conf++
				}
				if e.age < loopAgeMax {
					e.age++
				}
			} else {
				e.pastIter = e.currIter
				e.conf = 0
			}
			e.currIter = 0
		}
		return
	}
	if tagePred == taken {
		return // only allocate when TAGE struggled
	}
	// Random allocation gate: without it, inherently unpredictable
	// branches (which mispredict constantly) churn the table and evict
	// real loops.
	if lp.rand.Intn(4) != 0 {
		return
	}
	set, tag := lp.indexTag(pc)
	// Prefer an invalid way, else a zero-age victim, else decay ages.
	var victim *loopEntry
	for w := 0; w < lp.ways; w++ {
		e := &lp.entries[set*lp.ways+w]
		if !e.valid {
			victim = e
			break
		}
	}
	if victim == nil {
		for w := 0; w < lp.ways; w++ {
			e := &lp.entries[set*lp.ways+w]
			if e.age == 0 {
				victim = e
				break
			}
		}
	}
	if victim == nil {
		for w := 0; w < lp.ways; w++ {
			e := &lp.entries[set*lp.ways+w]
			if e.age > 0 {
				e.age--
			}
		}
		return
	}
	// Allocation is triggered by a misprediction, which for a loop is
	// typically its exit: the body direction is the opposite of the
	// observed outcome.
	*victim = loopEntry{tag: tag, dir: !taken, valid: true, age: loopAgeMax / 2}
}

func (lp *loopPredictor) flush() {
	for i := range lp.entries {
		lp.entries[i] = loopEntry{}
	}
}
