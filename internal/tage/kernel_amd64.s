#include "textflag.h"

// The AVX2 kernels of lookup and History.Update: four tagged tables per
// vector step, one 64-bit lane per table. Moves between general and vector
// registers use the VEX-encoded VMOVQ only, and each kernel ends with
// VZEROUPPER: a legacy-SSE instruction after a 256-bit one pays a
// state-transition penalty (one SSE MOVQ made the fold kernel 20x slower).

// shiftBase holds the PC shift counts 1+ti of the first group's four
// tables; each step adds 4.
DATA shiftBase<>+0(SB)/8, $1
DATA shiftBase<>+8(SB)/8, $2
DATA shiftBase<>+16(SB)/8, $3
DATA shiftBase<>+24(SB)/8, $4
GLOBL shiftBase<>(SB), RODATA|NOPTR, $32

// func lookupAVX2(pc, path uint64, fold, idxKeys, tagKeys, off, mask, tagMask *uint64,
//	tagv *uint16, pos, tag *uint64, n int) (hits uint64)
//
// Per table ti, as lookupTables computes it:
//   idx = (pc>>1 ^ pc>>(1+ti) ^ fold&0xFFFFFF ^ path&0x3F ^ idxKeys[ti]) & mask[ti]
//   tw  = (pc>>1 ^ fold>>24 ^ fold>>48<<1 ^ tagKeys[ti]) & tagMask[ti] | tagValid
//   pos[ti], tag[ti] = off[ti]+idx, tw
//   hit bit ti = tagv[pos] == tw
TEXT ·lookupAVX2(SB), NOSPLIT, $0-104
	MOVQ pc+0(FP), AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0             // Y0 = pc
	SHRQ $1, AX
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2             // Y2 = pc>>1
	MOVQ path+8(FP), BX
	ANDQ $0x3F, BX
	XORQ AX, BX
	VMOVQ BX, X1
	VPBROADCASTQ X1, Y1             // Y1 = pc>>1 ^ path&0x3F
	MOVQ n+88(FP), DX
	LEAQ 1(DX), BX
	VMOVQ BX, X4
	VPBROADCASTQ X4, Y4             // Y4 = n+1: lane ti is a table iff n+1 > 1+ti
	MOVQ $0xFFFFFF, BX
	VMOVQ BX, X5
	VPBROADCASTQ X5, Y5             // Y5 = foldLaneMask
	MOVQ $0x8000, BX
	VMOVQ BX, X6
	VPBROADCASTQ X6, Y6             // Y6 = tagValid
	MOVQ $0xFFFF, BX
	VMOVQ BX, X7
	VPBROADCASTQ X7, Y7             // Y7 = one tag word of a gathered quadword
	MOVQ $4, BX
	VMOVQ BX, X15
	VPBROADCASTQ X15, Y15           // Y15 = 4
	VMOVDQU shiftBase<>(SB), Y3     // Y3 = 1+ti per lane

	MOVQ fold+16(FP), SI
	MOVQ idxKeys+24(FP), DI
	MOVQ tagKeys+32(FP), R8
	MOVQ off+40(FP), R9
	MOVQ mask+48(FP), R10
	MOVQ tagMask+56(FP), R11
	MOVQ tagv+64(FP), R12
	MOVQ pos+72(FP), R13
	MOVQ tag+80(FP), R14
	XORQ AX, AX                     // AX = hits
	XORQ CX, CX                     // CX = first table of the group

lookupLoop:
	VMOVDQU (SI)(CX*8), Y9          // folds
	VPCMPGTQ Y3, Y4, Y10            // key lanes that are tables
	VPMASKMOVQ (DI)(CX*8), Y10, Y11 // index keys
	VPMASKMOVQ (R8)(CX*8), Y10, Y12 // tag keys

	VPSRLVQ Y3, Y0, Y13
	VPXOR Y1, Y13, Y13
	VPAND Y5, Y9, Y14
	VPXOR Y14, Y13, Y13
	VPXOR Y11, Y13, Y13
	VPAND (R10)(CX*8), Y13, Y13
	VPADDQ (R9)(CX*8), Y13, Y13     // Y13 = positions

	VPSRLQ $24, Y9, Y14
	VPSRLQ $48, Y9, Y10
	VPSLLQ $1, Y10, Y10
	VPXOR Y14, Y10, Y10
	VPXOR Y2, Y10, Y10
	VPXOR Y12, Y10, Y10
	VPAND (R11)(CX*8), Y10, Y10
	VPOR Y6, Y10, Y10               // Y10 = tag words

	VMOVDQU Y13, (R13)(CX*8)
	VMOVDQU Y10, (R14)(CX*8)

	VPCMPEQQ Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPGATHERQQ Y11, (R12)(Y13*2), Y12
	VPAND Y7, Y12, Y12
	VPCMPEQQ Y10, Y12, Y12
	VMOVMSKPD Y12, BX
	SHLQ CX, BX
	ORQ BX, AX

	VPADDQ Y15, Y3, Y3
	ADDQ $4, CX
	CMPQ CX, DX
	JLT lookupLoop

	VZEROUPPER
	MOVQ AX, hits+96(FP)
	RET

// func foldAVX2(fold, outMask, ovMask, compMask, origLen *uint64, win *byte, in uint64, n int)
//
// Per table ti, as foldShift computes it with oldBit = win[origLen[ti]]:
//   p = fold<<1 | in
//   p ^= -oldBit & outMask
//   p ^= ((p & ovMask) + foldCarry) >> 15 & foldLaneLSB
//   fold = p & compMask
TEXT ·foldAVX2(SB), NOSPLIT, $0-64
	MOVQ in+48(FP), AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0             // Y0 = in
	MOVQ $0x7fff007fff007fff, AX
	VMOVQ AX, X1
	VPBROADCASTQ X1, Y1             // Y1 = foldCarry
	MOVQ $0x1000001000001, AX
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2             // Y2 = foldLaneLSB
	MOVQ $1, AX
	VMOVQ AX, X3
	VPBROADCASTQ X3, Y3             // Y3 = the history bit of a gathered quadword
	VPXOR Y4, Y4, Y4                // Y4 = 0

	MOVQ fold+0(FP), SI
	MOVQ outMask+8(FP), DI
	MOVQ ovMask+16(FP), R8
	MOVQ compMask+24(FP), R9
	MOVQ origLen+32(FP), R10
	MOVQ win+40(FP), R11
	MOVQ n+56(FP), DX
	XORQ CX, CX                     // CX = first table of the group

foldLoop:
	VMOVDQU (R10)(CX*8), Y5
	VPCMPEQQ Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPGATHERQQ Y6, (R11)(Y5*1), Y7
	VPAND Y3, Y7, Y7                // oldBit
	VPSUBQ Y7, Y4, Y7
	VPAND (DI)(CX*8), Y7, Y7        // -oldBit & outMask

	VMOVDQU (SI)(CX*8), Y8
	VPSLLQ $1, Y8, Y8
	VPOR Y0, Y8, Y8
	VPXOR Y7, Y8, Y8
	VPAND (R8)(CX*8), Y8, Y9
	VPADDQ Y1, Y9, Y9
	VPSRLQ $15, Y9, Y9
	VPAND Y2, Y9, Y9
	VPXOR Y9, Y8, Y8
	VPAND (R9)(CX*8), Y8, Y8
	VMOVDQU Y8, (SI)(CX*8)

	ADDQ $4, CX
	CMPQ CX, DX
	JLT foldLoop

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
