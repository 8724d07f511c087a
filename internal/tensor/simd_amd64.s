#include "textflag.h"

// tailmask<> holds eight all-ones words then eight zero words: the 32 bytes
// starting 4*r bytes before its midpoint enable exactly the first r lanes.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// The gemmAVX2 macros sit above every TEXT line: go vet's asmdecl would
// check their FP references against the function defined above them.

// One reduction step for output row i: broadcast a[i, p] into Y4, set Y5
// to the lanes whose product is kept (a[i, p] != cmp, or unordered), then
// multiply, mask the dropped products to +0 and add. Y6-Y9 hold products.
#define BCAST \
	VBROADCASTSS (SI), Y4; \
	VCMPPS       $4, Y14, Y4, Y5

#define TERM(src, prod, acc) \
	VMULPS src, Y4, prod; \
	VANDPS Y5, prod, prod; \
	VADDPS prod, acc, acc

// Point SI at a[i, 0], BX at b[0, j0] and DI at out[i, j0], for i = R12
// and j0 = R13.
#define ROWSETUP \
	MOVQ  R12, AX; \
	IMULQ R9, AX; \
	MOVQ  a+16(FP), SI; \
	ADDQ  AX, SI; \
	MOVQ  b+40(FP), BX; \
	LEAQ  (BX)(R13*4), BX; \
	MOVQ  R12, AX; \
	IMULQ R8, AX; \
	MOVQ  out+0(FP), DI; \
	ADDQ  AX, DI; \
	LEAQ  (DI)(R13*4), DI

// Advance to p+1: SI steps by sap, BX by ldb.
#define NEXTP \
	ADDQ R10, SI; \
	ADDQ R11, BX; \
	DECQ CX

// Add the finished lane sum acc into out at off(DI).
#define STORE(off, acc) \
	VADDPS off(DI), acc, acc; \
	VMOVUPS acc, off(DI)

// func gemmAVX2(out *float32, ldo int, a *float32, sai, sap int, b *float32, ldb, m, k, n int, cmp float32)
//
// Column blocks of 32, then of 8, then one masked block of n%8 lanes; for
// each block every row runs the whole p loop with its sums in registers, so
// the block of b stays cache-resident across rows.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-84
	MOVQ         ldo+8(FP), R8
	SHLQ         $2, R8
	MOVQ         sai+24(FP), R9
	SHLQ         $2, R9
	MOVQ         sap+32(FP), R10
	SHLQ         $2, R10
	MOVQ         ldb+48(FP), R11
	SHLQ         $2, R11
	VBROADCASTSS cmp+80(FP), Y14
	XORQ         R13, R13            // R13 = j0, the block's first column

block32:
	MOVQ n+72(FP), AX
	SUBQ R13, AX
	CMPQ AX, $32
	JLT  block8
	XORQ R12, R12                    // R12 = i

rows32:
	CMPQ   R12, m+56(FP)
	JGE    next32
	ROWSETUP
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   k+64(FP), CX
	TESTQ  CX, CX
	JZ     store32

p32:
	BCAST
	TERM((BX), Y6, Y0)
	TERM(32(BX), Y7, Y1)
	TERM(64(BX), Y8, Y2)
	TERM(96(BX), Y9, Y3)
	NEXTP
	JNZ p32

store32:
	STORE(0, Y0)
	STORE(32, Y1)
	STORE(64, Y2)
	STORE(96, Y3)
	INCQ R12
	JMP  rows32

next32:
	ADDQ $32, R13
	JMP  block32

block8:
	MOVQ n+72(FP), AX
	SUBQ R13, AX
	CMPQ AX, $8
	JLT  tail
	XORQ R12, R12

rows8:
	CMPQ   R12, m+56(FP)
	JGE    next8
	ROWSETUP
	VXORPS Y0, Y0, Y0
	MOVQ   k+64(FP), CX
	TESTQ  CX, CX
	JZ     store8

p8:
	BCAST
	TERM((BX), Y6, Y0)
	NEXTP
	JNZ p8

store8:
	STORE(0, Y0)
	INCQ R12
	JMP  rows8

next8:
	ADDQ $8, R13
	JMP  block8

tail:
	// AX = n - j0 < 8 lanes remain; Y15 enables the first AX of them.
	TESTQ   AX, AX
	JZ      done
	SHLQ    $2, AX
	LEAQ    tailmask<>+32(SB), DX
	SUBQ    AX, DX
	VMOVDQU (DX), Y15
	XORQ    R12, R12

rowsTail:
	CMPQ       R12, m+56(FP)
	JGE        done
	ROWSETUP
	VXORPS     Y0, Y0, Y0
	MOVQ       k+64(FP), CX
	TESTQ      CX, CX
	JZ         storeTail

pTail:
	BCAST
	VMASKMOVPS (BX), Y15, Y7
	TERM(Y7, Y6, Y0)
	NEXTP
	JNZ        pTail

storeTail:
	VMASKMOVPS (DI), Y15, Y7
	VADDPS     Y7, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
	INCQ       R12
	JMP        rowsTail

done:
	VZEROUPPER
	RET

// func addAVX2(dst, src *float32, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add32:
	CMPQ    CX, $32
	JLT     add8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     add32

add8:
	CMPQ    CX, $8
	JLT     add1
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     add8

add1:
	TESTQ  CX, CX
	JZ     addDone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
