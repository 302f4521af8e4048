package tage

import (
	"syscall"
	"testing"
	"unsafe"

	"hybp/internal/rng"
)

// TestLookupKernelKeysEndAtGuardPage places the index keys, and then the
// tag keys, so that the slice ends exactly where an inaccessible page
// begins, as a keys.Table.Window slice may end at its allocation's end.
// The lookup kernel must read no key lane past the last table (a load
// there faults) and still predict as the portable loop does.
func TestLookupKernelKeysEndAtGuardPage(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	defer func(saved bool) { useKernels = saved }(useKernels)
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for _, cfg := range []Config{DefaultConfig(1), SmallConfig(1)} {
		n := len(cfg.Tables)
		atEnd := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[page-8*n])), n)
		other := make([]uint64, n)
		for _, idxAtEnd := range []bool{true, false} {
			idx, tag := atEnd, other
			if !idxAtEnd {
				idx, tag = other, atEnd
			}
			kern, port := New(cfg), New(cfg)
			kh, ph := kern.NewHistory(), port.NewHistory()
			r := rng.New(uint64(n))
			for i := 0; i < 5000; i++ {
				for ti := range idx {
					idx[ti], tag[ti] = r.Uint64(), r.Uint64()&0x7FF
				}
				kern.SetKeys(idx, tag)
				port.SetKeys(idx, tag)
				pc, taken := 0x4000_0000+uint64(r.Intn(256))*4, r.Bool(0.6)
				useKernels = true
				kp := kern.Access(pc, taken, kh)
				useKernels = false
				if pp := port.Access(pc, taken, ph); kp != pp {
					t.Fatalf("%d tables, access %d: Access = %v, portable %v", n, i, kp, pp)
				}
			}
			if kern.Stats() != port.Stats() {
				t.Fatalf("%d tables: stats %+v, portable %+v", n, kern.Stats(), port.Stats())
			}
		}
	}
}
