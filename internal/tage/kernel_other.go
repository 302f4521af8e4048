//go:build !amd64

package tage

// The AVX2 kernels exist only on amd64; elsewhere useKernels is false and
// lookup and History.Update run their portable loops.

func haveAVX2() bool { return false }

func lookupAVX2(pc, path uint64, fold, idxKeys, tagKeys, off, mask, tagMask *uint64,
	tagv *uint16, pos, tag *uint64, n int) uint64 {
	panic("tage: no lookup kernel on this architecture")
}

func foldAVX2(fold, outMask, ovMask, compMask, origLen *uint64, win *byte, in uint64, n int) {
	panic("tage: no fold kernel on this architecture")
}
