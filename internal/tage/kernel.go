package tage

// kernelWidth is the number of tagged tables the AVX2 kernels handle per
// vector step. Every per-table array the kernels read or write has a zero
// tail up to a multiple of kernelWidth in its capacity (see padded).
const kernelWidth = 4

// useKernels selects the AVX2 kernels for the tagged-table lookup and the
// fold update. It is set once, at init, from the CPU's features: AVX2
// with the YMM state enabled by the OS. The portable loops run everywhere
// else, and they are the reference the differential tests hold the
// kernels to.
var useKernels = haveAVX2()

// padded returns n zero elements whose backing array is padded with zeros
// to a multiple of kernelWidth, so a kernel's last vector step reads and
// writes inside the allocation.
func padded(n int) []uint64 {
	return make([]uint64, (n+kernelWidth-1)&^(kernelWidth-1))[:n]
}
