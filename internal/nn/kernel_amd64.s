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

// ROW fills the 32-byte row at offset off of table t with four copies of v:
// one vector operand.
#define ROW(t, off, v) \
	DATA t+(off)(SB)/8, v; \
	DATA t+(off+8)(SB)/8, v; \
	DATA t+(off+16)(SB)/8, v; \
	DATA t+(off+24)(SB)/8, v

// math.Exp's constants (the standard library's exp_amd64.s), one row each.
ROW(expconst<>, 0, $1.4426950408889634073599246810018920)        // log2(e)
ROW(expconst<>, 32, $0.69314718055966295651160180568695068359375) // ln 2, upper part
ROW(expconst<>, 64, $0.28235290563031577122588448175013436025525412068e-12) // ln 2, lower part
ROW(expconst<>, 96, $0.0625)
ROW(expconst<>, 128, $-708.0)                  // the kernel's range
ROW(expconst<>, 160, $709.0)
ROW(expconst<>, 192, $2.4801587301587301587e-5) // the Taylor coefficients, x⁸ down to x²
ROW(expconst<>, 224, $1.9841269841269841270e-4)
ROW(expconst<>, 256, $1.3888888888888888889e-3)
ROW(expconst<>, 288, $8.3333333333333333333e-3)
ROW(expconst<>, 320, $4.1666666666666666667e-2)
ROW(expconst<>, 352, $1.6666666666666666667e-1)
ROW(expconst<>, 384, $0.5)
ROW(expconst<>, 416, $1.0)
ROW(expconst<>, 448, $2.0)
ROW(expconst<>, 480, $0x000003ff000003ff) // the exponent bias, four int32s in 16 bytes
GLOBL expconst<>(SB), RODATA, $512

// func expAVX2(dst, x []float64) int
//
// Each lane takes the steps of math.Exp's FMA path (archExp under useFMA) in
// its order and with its fusions: k = x·log2(e) rounded to the nearest int32
// (VCVTPD2DQ, as CVTSD2SL), r = x − k·ln2 in two fused steps (upper, then
// lower part), r·0.0625, the Taylor polynomial by a fused Horner chain, r
// times it, three squarings x·(x+2), a fourth fused with the +1, and the
// product with 2^k built as (k+1023)<<52. The range check keeps k in
// [−1021, 1023]: no lane reaches archExp's overflow or denormal branches.
// Registers: DI dst, SI x, CX len(x), AX the elements done; Y0 x then r, Y1
// and Y3 scratch, Y2 k then 2^k, Y4..Y15 constants.
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VMOVUPD expconst<>+0(SB), Y4
	VMOVUPD expconst<>+32(SB), Y5
	VMOVUPD expconst<>+64(SB), Y6
	VMOVUPD expconst<>+96(SB), Y7
	VMOVUPD expconst<>+128(SB), Y8
	VMOVUPD expconst<>+160(SB), Y9
	VMOVUPD expconst<>+192(SB), Y10
	VMOVUPD expconst<>+224(SB), Y11
	VMOVUPD expconst<>+256(SB), Y12
	VMOVUPD expconst<>+288(SB), Y13
	VMOVUPD expconst<>+416(SB), Y14
	VMOVUPD expconst<>+448(SB), Y15
	XORQ AX, AX

explane:
	CMPQ AX, CX
	JAE  expdone
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD $0x1d, Y8, Y0, Y1 // x >= −708, false for NaN
	VCMPPD $0x12, Y9, Y0, Y3 // x <= 709
	VANDPD Y3, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ DX, $0xf
	JNE  expdone
	VMULPD Y4, Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD X2, Y1
	VFNMADD231PD Y5, Y1, Y0
	VFNMADD231PD Y6, Y1, Y0
	VMULPD Y7, Y0, Y0
	VMOVAPD Y10, Y1
	VFMADD213PD Y11, Y0, Y1
	VFMADD213PD Y12, Y0, Y1
	VFMADD213PD Y13, Y0, Y1
	VFMADD213PD expconst<>+320(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y0, Y1
	VFMADD213PD expconst<>+384(SB), Y0, Y1
	VFMADD213PD Y14, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y15, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y15, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y15, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y15, Y0, Y1
	VFMADD213PD Y14, Y1, Y0
	VPADDD expconst<>+480(SB), X2, X2
	VPMOVZXDQ X2, Y2
	VPSLLQ $52, Y2, Y2
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  explane

expdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// math.Log's constants (the standard library's log_amd64.s), one row each,
// and the masks of its frexp.
ROW(logconst<>, 0, $0x000FFFFFFFFFFFFF) // the mantissa
ROW(logconst<>, 32, $0.5)
ROW(logconst<>, 64, $0x4330000000000000) // 2^52, whose mantissa takes an exponent e
ROW(logconst<>, 96, $0x43300000000003fe) // 2^52 + 1022: subtracted, leaves e − 1022
ROW(logconst<>, 128, $7.07106781186547524401e-01) // √2/2
ROW(logconst<>, 160, $1.0)
ROW(logconst<>, 192, $2.0)
ROW(logconst<>, 224, $6.666666666666735130e-01) // L1..L7
ROW(logconst<>, 256, $3.999999999940941908e-01)
ROW(logconst<>, 288, $2.857142874366239149e-01)
ROW(logconst<>, 320, $2.222219843214978396e-01)
ROW(logconst<>, 352, $1.818357216161805012e-01)
ROW(logconst<>, 384, $1.531383769920937332e-01)
ROW(logconst<>, 416, $1.479819860511658591e-01)
ROW(logconst<>, 448, $1.90821492927058770002e-10) // ln 2, lower part
ROW(logconst<>, 480, $6.93147180369123816490e-01) // ln 2, upper part
ROW(logconst<>, 512, $0x7FF0000000000000) // +Inf
GLOBL logconst<>(SB), RODATA, $544

// func logAVX2(dst, x []float64) int
//
// Each lane takes the steps of math.Log's SSE2 path (archLog) in its order:
// frexp by bit operations (f1 = the mantissa under the exponent of 0.5, k =
// the biased exponent − 1022), then, under the mask !(√2/2 < f1), k −= 1 and
// f1 ×= 2 as mask arithmetic, f = f1 − 1, s = f/(2+f), the two Horner chains
// in s⁴, and k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f); nothing is
// fused. k is converted exactly: e (at most 2047) ORed into the mantissa of
// 2^52, less 2^52 + 1022. Registers: DI dst, SI x, CX len(x), AX the elements
// done; Y0 x, Y1 k, Y2 f1 then f, Y3..Y6 scratch, Y7..Y15 constants.
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VMOVUPD logconst<>+32(SB), Y7
	VMOVUPD logconst<>+160(SB), Y8
	VMOVUPD logconst<>+128(SB), Y9
	VMOVUPD logconst<>+416(SB), Y10
	VMOVUPD logconst<>+384(SB), Y11
	VMOVUPD logconst<>+352(SB), Y12
	VMOVUPD logconst<>+320(SB), Y13
	VMOVUPD logconst<>+288(SB), Y14
	VMOVUPD logconst<>+256(SB), Y15
	XORQ AX, AX

loglane:
	CMPQ AX, CX
	JAE  logdone
	VMOVUPD (SI)(AX*8), Y0
	VXORPD Y1, Y1, Y1
	VCMPPD $0x1e, Y1, Y0, Y1 // x > 0, false for NaN
	VCMPPD $0x11, logconst<>+512(SB), Y0, Y3 // x < +Inf
	VANDPD Y3, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ DX, $0xf
	JNE  logdone
	VANDPD logconst<>+0(SB), Y0, Y2
	VORPD Y7, Y2, Y2
	VPSRLQ $52, Y0, Y1
	VPOR logconst<>+64(SB), Y1, Y1
	VSUBPD logconst<>+96(SB), Y1, Y1
	VCMPPD $5, Y2, Y9, Y3 // !(√2/2 < f1)
	VANDPD Y8, Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD Y8, Y3, Y3
	VMULPD Y3, Y2, Y2
	VSUBPD Y8, Y2, Y2
	VADDPD logconst<>+192(SB), Y2, Y3
	VDIVPD Y3, Y2, Y3 // s
	VMULPD Y3, Y3, Y4 // s²
	VMULPD Y4, Y4, Y5 // s⁴
	VMULPD Y10, Y5, Y6
	VADDPD Y12, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD Y14, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+224(SB), Y6, Y6
	VMULPD Y6, Y4, Y4 // t1
	VMULPD Y11, Y5, Y6
	VADDPD Y13, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD Y15, Y6, Y6
	VMULPD Y6, Y5, Y5 // t2
	VADDPD Y5, Y4, Y4 // R
	VMULPD Y7, Y2, Y6
	VMULPD Y2, Y6, Y6 // hfsq
	VADDPD Y6, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD logconst<>+448(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y6, Y6
	VSUBPD Y2, Y6, Y6
	VMULPD logconst<>+480(SB), Y1, Y1
	VSUBPD Y6, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  loglane

logdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func adamAVX2(p, g, m, v []float64, k *adamStep)
//
// Each lane takes adamGo's steps for its parameter in adamGo's order; the
// products are rounded on their own and the divisions and the square root
// are exact, so the bits are adamGo's. Registers: DI p, SI g, R8 m, R9 v, CX
// len(p), AX the index; Y0 the gradients, Y1..Y3 scratch, Y8..Y15 the
// scalars of k.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), DX
	VBROADCASTSD 0(DX), Y8   // beta1
	VBROADCASTSD 8(DX), Y9   // 1 − beta1
	VBROADCASTSD 16(DX), Y10 // beta2
	VBROADCASTSD 24(DX), Y11 // 1 − beta2
	VBROADCASTSD 32(DX), Y12 // c1
	VBROADCASTSD 40(DX), Y13 // c2
	VBROADCASTSD 48(DX), Y14 // lr
	VBROADCASTSD 56(DX), Y15 // eps
	XORQ AX, AX

adamlane:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD (R8)(AX*8), Y8, Y1
	VMULPD Y0, Y9, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD (R9)(AX*8), Y10, Y2
	VMULPD Y0, Y11, Y3
	VMULPD Y0, Y3, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (R9)(AX*8)
	VDIVPD Y12, Y1, Y1 // mHat
	VDIVPD Y13, Y2, Y2 // vHat
	VSQRTPD Y2, Y2
	VADDPD Y15, Y2, Y2
	VMULPD Y1, Y14, Y1
	VDIVPD Y2, Y1, Y1
	VMOVUPD (DI)(AX*8), Y3
	VSUBPD Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JB   adamlane
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
