#include "textflag.h"

// The AVX2 kernels. Each vector lane is one output element and repeats the
// plain loop's steps for it in the plain loop's order: a product rounded on
// its own (VMULPD), then added (VADDPD). Nothing is fused and no sum is
// reassociated, so every lane's result has the bits of kernel.go's.

// DOT4 adds four input terms to the four units whose weight rows a0..a3
// start at the current input: the rows' next four weights are loaded,
// transposed in registers to one column per input, and each column times its
// broadcast input (Y12..Y15) is added to z in input order. Y4..Y11 are
// scratch.
#define DOT4(a0, a1, a2, a3, z) \
	VMOVUPD a0, Y4; \
	VMOVUPD a1, Y5; \
	VMOVUPD a2, Y6; \
	VMOVUPD a3, Y7; \
	VUNPCKLPD Y5, Y4, Y8; \
	VUNPCKHPD Y5, Y4, Y9; \
	VUNPCKLPD Y7, Y6, Y10; \
	VUNPCKHPD Y7, Y6, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y4; \
	VPERM2F128 $0x20, Y11, Y9, Y5; \
	VPERM2F128 $0x31, Y10, Y8, Y6; \
	VPERM2F128 $0x31, Y11, Y9, Y7; \
	VMULPD Y12, Y4, Y4; \
	VADDPD Y4, z, z; \
	VMULPD Y13, Y5, Y5; \
	VADDPD Y5, z, z; \
	VMULPD Y14, Y6, Y6; \
	VADDPD Y6, z, z; \
	VMULPD Y15, Y7, Y7; \
	VADDPD Y7, z, z

// DOT1 adds one input term (broadcast in Y12) to the four units whose
// weights for that input are a0..a3. Y4, Y5 are scratch.
#define DOT1(a0, a1, a2, a3, z) \
	VMOVSD a0, X4; \
	VMOVHPD a1, X4, X4; \
	VMOVSD a2, X5; \
	VMOVHPD a3, X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD Y12, Y4, Y4; \
	VADDPD Y4, z, z

// func dotAVX2(y, b, w, x []float64)
//
// Eight units at a time (two sums, Y0 and Y1), then four. Registers: DI y,
// SI b, DX the group's first weight row, R8 x, R10 the row stride in bytes,
// R11 the number of four-input steps, R15 the inputs left over, CX the units
// left; R12, R13, R14 point at rows 0, 3 and 6 of the group, BX at the input.
TEXT ·dotAVX2(SB), NOSPLIT, $0-96
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ x_base+72(FP), R8
	MOVQ x_len+80(FP), R10
	MOVQ R10, R11
	SHRQ $2, R11
	MOVQ R10, R15
	ANDQ $3, R15
	SHLQ $3, R10

dot8:
	CMPQ CX, $8
	JB   dot4
	MOVQ DX, R12
	LEAQ (DX)(R10*2), R13
	ADDQ R10, R13
	LEAQ (R13)(R10*2), R14
	ADDQ R10, R14
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	MOVQ R8, BX
	MOVQ R11, AX
	TESTQ AX, AX
	JZ   dot8tail

dot8step:
	VBROADCASTSD (BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	DOT4((R12), (R12)(R10*1), (R12)(R10*2), (R13), Y0)
	DOT4((R13)(R10*1), (R13)(R10*2), (R14), (R14)(R10*1), Y1)
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, BX
	DECQ AX
	JNZ  dot8step

dot8tail:
	MOVQ R15, AX
	TESTQ AX, AX
	JZ   dot8store

dot8tailstep:
	VBROADCASTSD (BX), Y12
	DOT1((R12), (R12)(R10*1), (R12)(R10*2), (R13), Y0)
	DOT1((R13)(R10*1), (R13)(R10*2), (R14), (R14)(R10*1), Y1)
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, BX
	DECQ AX
	JNZ  dot8tailstep

dot8store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, SI
	LEAQ (DX)(R10*8), DX
	SUBQ $8, CX
	JMP  dot8

dot4:
	CMPQ CX, $4
	JB   dotdone
	MOVQ DX, R12
	LEAQ (DX)(R10*2), R13
	ADDQ R10, R13
	VMOVUPD (SI), Y0
	MOVQ R8, BX
	MOVQ R11, AX
	TESTQ AX, AX
	JZ   dot4tail

dot4step:
	VBROADCASTSD (BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	DOT4((R12), (R12)(R10*1), (R12)(R10*2), (R13), Y0)
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, BX
	DECQ AX
	JNZ  dot4step

dot4tail:
	MOVQ R15, AX
	TESTQ AX, AX
	JZ   dot4store

dot4tailstep:
	VBROADCASTSD (BX), Y12
	DOT1((R12), (R12)(R10*1), (R12)(R10*2), (R13), Y0)
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, BX
	DECQ AX
	JNZ  dot4tailstep

dot4store:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	LEAQ (DX)(R10*4), DX
	SUBQ $4, CX
	JMP  dot4

dotdone:
	VZEROUPPER
	RET

// MAC adds c[t] (broadcast in Y8) times the four values at m to the sum s,
// through the scratch register p.
#define MAC(m, p, s) \
	VMULPD m, Y8, p; \
	VADDPD p, s, s

// ADDTO adds the sum s to the four accumulators at a, in the plain loop's
// operand order (acc + sum). Y8 is scratch.
#define ADDTO(s, a) \
	VMOVUPD a, Y8; \
	VADDPD s, Y8, s; \
	VMOVUPD s, a

// func accumAVX2(acc, c, m []float64, stride int)
//
// Thirty-two accumulators at a time (eight sums, Y0..Y7, held in registers
// over every t), then sixteen, four and one. Registers: DI acc, CX the
// accumulators left, SI c, R8 len(c), DX the current column of m, R9 the
// stride in bytes; BX walks c, R10 the rows of m, AX counts t.
TEXT ·accumAVX2(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ c_base+24(FP), SI
	MOVQ c_len+32(FP), R8
	MOVQ m_base+48(FP), DX
	MOVQ stride+72(FP), R9
	SHLQ $3, R9
	TESTQ R8, R8
	JZ   accdone

acc32:
	CMPQ CX, $32
	JB   acc16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, BX
	MOVQ DX, R10
	MOVQ R8, AX

acc32step:
	VBROADCASTSD (BX), Y8
	MAC((R10), Y9, Y0)
	MAC(32(R10), Y10, Y1)
	MAC(64(R10), Y11, Y2)
	MAC(96(R10), Y12, Y3)
	MAC(128(R10), Y13, Y4)
	MAC(160(R10), Y14, Y5)
	MAC(192(R10), Y15, Y6)
	MAC(224(R10), Y9, Y7)
	ADDQ $8, BX
	ADDQ R9, R10
	DECQ AX
	JNZ  acc32step
	ADDTO(Y0, (DI))
	ADDTO(Y1, 32(DI))
	ADDTO(Y2, 64(DI))
	ADDTO(Y3, 96(DI))
	ADDTO(Y4, 128(DI))
	ADDTO(Y5, 160(DI))
	ADDTO(Y6, 192(DI))
	ADDTO(Y7, 224(DI))
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, CX
	JMP  acc32

acc16:
	CMPQ CX, $16
	JB   acc4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, BX
	MOVQ DX, R10
	MOVQ R8, AX

acc16step:
	VBROADCASTSD (BX), Y8
	MAC((R10), Y9, Y0)
	MAC(32(R10), Y10, Y1)
	MAC(64(R10), Y11, Y2)
	MAC(96(R10), Y12, Y3)
	ADDQ $8, BX
	ADDQ R9, R10
	DECQ AX
	JNZ  acc16step
	ADDTO(Y0, (DI))
	ADDTO(Y1, 32(DI))
	ADDTO(Y2, 64(DI))
	ADDTO(Y3, 96(DI))
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  acc16

acc4:
	CMPQ CX, $4
	JB   acc1
	VXORPD Y0, Y0, Y0
	MOVQ SI, BX
	MOVQ DX, R10
	MOVQ R8, AX

acc4step:
	VBROADCASTSD (BX), Y8
	MAC((R10), Y9, Y0)
	ADDQ $8, BX
	ADDQ R9, R10
	DECQ AX
	JNZ  acc4step
	ADDTO(Y0, (DI))
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  acc4

acc1:
	TESTQ CX, CX
	JZ   accdone
	VXORPD X0, X0, X0
	MOVQ SI, BX
	MOVQ DX, R10
	MOVQ R8, AX

acc1step:
	VMOVSD (BX), X8
	VMULSD (R10), X8, X9
	VADDSD X9, X0, X0
	ADDQ $8, BX
	ADDQ R9, R10
	DECQ AX
	JNZ  acc1step
	VMOVSD (DI), X8
	VADDSD X0, X8, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JMP  acc1

accdone:
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
