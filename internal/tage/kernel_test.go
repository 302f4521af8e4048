package tage

import (
	"math/bits"
	"slices"
	"testing"

	"hybp/internal/keys"
	"hybp/internal/rng"
)

// forEachPath runs f on the portable loops and, when the CPU has AVX2, on
// the kernels, restoring the dispatch afterwards.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useKernels
	defer func() { useKernels = saved }()
	useKernels = false
	t.Run("portable", f)
	if !haveAVX2() {
		t.Log("no AVX2 on this CPU: kernels not exercised")
		return
	}
	useKernels = true
	t.Run("avx2", f)
}

// TestKernelsMatchPortable drives two predictors of one geometry, one on
// the AVX2 kernels and one on the portable loops, with identical streams,
// and after every Access, Predict and Reset compares their predictions,
// statistics, tagged entries and histories (ring, path and every fold
// lane). The geometries are the paper's thirty 1K-entry tables, the 1/16
// attack geometry (thirty 64-entry tables) and SmallConfig's five tables,
// whose last kernel group is a single table and three padding lanes. The
// keyed runs read their index keys as HyBP does, from a real code book's
// Window: a slice of the book with capacity exactly the table count
// outside a refresh window, the table's scratch vector inside one; the tag
// keys are an exact-length slice too.
func TestKernelsMatchPortable(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this CPU: only the portable path runs")
	}
	defer func(saved bool) { useKernels = saved }(useKernels)
	small := DefaultConfig(3)
	small.Tables = slices.Clone(small.Tables)
	for i := range small.Tables {
		small.Tables[i].Entries = 64
	}
	n := 60_000
	if testing.Short() {
		n = 12_000
	}
	for _, g := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig(2)}, {"30x64", small}, {"small", SmallConfig(4)}} {
		for _, keyed := range []bool{false, true} {
			name := g.name + "/identity"
			if keyed {
				name = g.name + "/keyed"
			}
			t.Run(name, func(t *testing.T) {
				kern, port := New(g.cfg), New(g.cfg)
				kh := []*History{kern.NewHistory(), kern.NewHistory()}
				ph := []*History{port.NewHistory(), port.NewHistory()}
				tables := kern.NumTables()
				book := keys.NewTable(keys.DefaultConfig(5))
				tagKeys := make([]uint64, tables)
				r := rng.New(11)
				var last [2]uint64
				inWindow := 0
				check := func(i int, what string) {
					t.Helper()
					if kern.Stats() != port.Stats() {
						t.Fatalf("access %d, after %s: stats %+v, portable %+v", i, what, kern.Stats(), port.Stats())
					}
					if !slices.Equal(kern.tagv, port.tagv) || !slices.Equal(kern.ctr, port.ctr) || !slices.Equal(kern.u, port.u) {
						t.Fatalf("access %d, after %s: tagged entries differ", i, what)
					}
					for th := range kh {
						k, p := kh[th], ph[th]
						if k.path != p.path || k.ghr.pos != p.ghr.pos || !slices.Equal(k.ghr.bits, p.ghr.bits) || !slices.Equal(k.fold, p.fold) {
							t.Fatalf("access %d, after %s: thread %d histories differ", i, what, th)
						}
					}
				}
				for i := 0; i < n; i++ {
					now := uint64(i)
					switch {
					case i%997 == 0:
						th := r.Intn(2)
						kh[th].Reset()
						ph[th].Reset()
						check(i, "Reset")
					case i == n/3:
						kern.FlushTagged()
						port.FlushTagged()
					case i == 2*n/3:
						kern.Flush()
						port.Flush()
					}
					th := r.Intn(2)
					b := uint64(r.Intn(1 << 14))
					taken := r.Bool(0.6)
					pc := 0x4000_0000 + b*4
					if r.Bool(0.5) {
						b &= 31
						taken = bits.OnesCount64((last[th]^b)&3)&1 == 0
						pc = 0x4000_0000 + b*8
					}
					last[th] <<= 1
					if taken {
						last[th] |= 1
					}
					if keyed {
						if i%1000 == 0 {
							book.Refresh(now)
						}
						if book.RefreshInFlight(now) {
							inWindow++
						}
						idx := book.Window(pc, now, tables)
						ck := book.ContentKey()
						for ti := range tagKeys {
							tagKeys[ti] = ck >> (uint(ti) % 32) & 0x7FF
						}
						kern.SetKeys(idx, tagKeys)
						port.SetKeys(idx, tagKeys)
					}
					if i%5 == 0 {
						useKernels = true
						kp := kern.Predict(pc, kh[th])
						useKernels = false
						if pp := port.Predict(pc, ph[th]); kp != pp {
							t.Fatalf("access %d: Predict = %v, portable %v", i, kp, pp)
						}
						check(i, "Predict")
					}
					useKernels = true
					kp := kern.Access(pc, taken, kh[th])
					useKernels = false
					if pp := port.Access(pc, taken, ph[th]); kp != pp {
						t.Fatalf("access %d: Access = %v, portable %v", i, kp, pp)
					}
					check(i, "Access")
				}
				st := kern.Stats()
				if st.Allocations == 0 || st.ProviderHits == 0 {
					t.Fatalf("stream did not exercise allocation and provider hits: %+v", st)
				}
				if keyed && (inWindow == 0 || inWindow == n) {
					t.Fatalf("%d of %d keyed accesses inside a refresh window: both kinds of key slice must occur", inWindow, n)
				}
			})
		}
	}
}

// TestLookupKernelMatchesPortable compares the lookup kernel with the
// portable loop on random folds, paths, keys and tag arrays seeded with
// matches, so accesses with several hits (a provider, an alternate and
// more) are common: the kernel's hit mask must be exactly the tables whose
// entry matches, its top two set bits the loop's provider and alternate,
// and its slots the loop's for every table the loop visited.
func TestLookupKernelMatchesPortable(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	for _, cfg := range []Config{DefaultConfig(1), SmallConfig(1)} {
		p := New(cfg)
		hs := p.NewHistory()
		n := p.NumTables()
		r := rng.New(uint64(n))
		idx, tag := make([]uint64, n), make([]uint64, n)
		multi := 0
		for step := 0; step < 20_000; step++ {
			pc := r.Uint64()
			hs.path = r.Uint64()
			for ti := range hs.fold {
				hs.fold[ti] = r.Uint64() & p.foldGeom.compMask[ti]
			}
			for ti := range idx {
				idx[ti], tag[ti] = r.Uint64(), r.Uint64()
			}
			p.SetKeys(idx, tag)
			lookup := func() uint64 {
				return lookupAVX2(pc, hs.path, &hs.fold[0], &idx[0], &tag[0], &p.off[0], &p.mask[0],
					&p.tagMask[0], &p.tagv[0], &p.slotPos[0], &p.slotTag[0], n) & (1<<uint(n) - 1)
			}
			lookup()
			var want uint64
			for ti := 0; ti < n; ti++ {
				switch pos, tw := p.slotPos[ti], p.slotTag[ti]; {
				case r.Bool(0.2):
					p.tagv[pos] = uint16(tw)
				case r.Bool(0.2):
					p.tagv[pos] = uint16(tw ^ 1)
				case r.Bool(0.2):
					p.tagv[pos] = uint16(tw &^ tagValid)
				}
				if uint64(p.tagv[p.slotPos[ti]]) == p.slotTag[ti] {
					want |= 1 << uint(ti)
				}
			}
			hits := lookup()
			kPos, kTag := slices.Clone(p.slotPos), slices.Clone(p.slotTag)
			provider, alt := p.lookupTables(pc, hs)
			if hits != want {
				t.Fatalf("step %d: kernel hits %#x, matching entries %#x", step, hits, want)
			}
			if bits.OnesCount64(hits) > 2 {
				multi++
			}
			stop := max(alt, 0)
			if !slices.Equal(kPos[stop:], p.slotPos[stop:]) || !slices.Equal(kTag[stop:], p.slotTag[stop:]) {
				t.Fatalf("step %d: kernel slots differ from the portable loop's above table %d", step, stop)
			}
			if got := bits.Len64(hits) - 1; got != provider {
				t.Fatalf("step %d: kernel provider %d, portable %d (hits %#x)", step, got, provider, hits)
			}
			if provider >= 0 {
				if got := bits.Len64(hits&^(1<<uint(provider))) - 1; got != alt {
					t.Fatalf("step %d: kernel alternate %d, portable %d (hits %#x)", step, got, alt, hits)
				}
			}
		}
		if multi == 0 {
			t.Fatalf("%d tables: no access hit more than two tables", n)
		}
	}
}
