package tage

// lookupAVX2 hashes and probes the n tagged tables four at a time. For
// each table ti it computes lookupTables' index and tag word from pc,
// path, fold[ti], idxKeys[ti] and tagKeys[ti], stores the entry's position
// in pos[ti] and the tag word in tag[ti], gathers tagv at the position and
// sets bit ti of the result when the entry matches. fold, off, mask,
// tagMask, pos and tag must be padded to a multiple of kernelWidth (bits
// at or above n of the result are then padding lanes, to be ignored);
// tagv must have tagvPad spare entries past its last. The keys are read
// with masked loads and need hold only n elements.
//
//go:noescape
func lookupAVX2(pc, path uint64, fold, idxKeys, tagKeys, off, mask, tagMask *uint64,
	tagv *uint16, pos, tag *uint64, n int) (hits uint64)

// foldAVX2 applies foldShift to the n tables' packed folds four at a time,
// with oldBit = win[origLen[ti]] gathered from the pushed history window.
// fold and the constants must be padded to a multiple of kernelWidth, and
// the window's backing array must have historyPad spare bytes past its
// last bit.
//
//go:noescape
func foldAVX2(fold, outMask, ovMask, compMask, origLen *uint64, win *byte, in uint64, n int)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the OS-enabled state
// components).
func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: CPUID.1:ECX.OSXSAVE and .AVX, XCR0's SSE and AVX state bits,
// and CPUID.(7,0):EBX.AVX2.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
