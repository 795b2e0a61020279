//go:build !noasm

// AVX2 pass of the input quantizer (see quantize in quant.go, its
// reference). Per eight pixels: widen to float64, multiply by the
// reciprocal scale, round half-to-even by adding and subtracting
// 1.5·2^52, clamp to [−127, 127] — the IEEE double operations of the
// scalar step in the same order, so each code is bit-identical. A NaN
// lane fails the ordered compare, and the mask ANDed in turns its
// clamped 127 into +0, code 0, as the scalar step's explicit NaN case
// does. The codes are packed to bytes with signed saturation (exact:
// every code is in int8 range), offset by 128 with an XOR of the sign
// bit, and stored one byte per pixel at the stride.

#include "textflag.h"

DATA quantmagic<>+0(SB)/8, $0x4338000000000000 // 1.5·2^52, roundMagic
GLOBL quantmagic<>(SB), RODATA, $8
DATA quanthi<>+0(SB)/8, $0x405fc00000000000 // 127.0
GLOBL quanthi<>(SB), RODATA, $8
DATA quantlo<>+0(SB)/8, $0xc05fc00000000000 // −127.0
GLOBL quantlo<>(SB), RODATA, $8

// func quantizeU8(dst []uint8, src []float32, stride int, inv float64)
TEXT ·quantizeU8(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ stride+48(FP), DX
	SHRQ $3, CX              // groups of eight pixels
	JZ   done

	VBROADCASTSD inv+56(FP), Y12
	VBROADCASTSD quantmagic<>(SB), Y13
	VBROADCASTSD quanthi<>(SB), Y14
	VBROADCASTSD quantlo<>(SB), Y15
	MOVQ $0x8080808080808080, R9 // the +128 offset of eight codes
	LEAQ (DX)(DX*2), R8          // 3·stride

loop:
	VCVTPS2PD (SI), Y0       // pixels 0-3
	VCVTPS2PD 16(SI), Y1     // pixels 4-7
	VMULPD Y12, Y0, Y0
	VMULPD Y12, Y1, Y1
	VADDPD Y13, Y0, Y0
	VADDPD Y13, Y1, Y1
	VSUBPD Y13, Y0, Y0
	VSUBPD Y13, Y1, Y1
	VCMPPD $7, Y0, Y0, Y2    // ordered: all ones unless NaN
	VCMPPD $7, Y1, Y1, Y3
	VMINPD Y14, Y0, Y0       // NaN takes the second operand, 127
	VMINPD Y14, Y1, Y1
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
	VANDPD Y2, Y0, Y0        // NaN lanes to +0
	VANDPD Y3, Y1, Y1
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y1, X1
	VPACKSSDW X1, X0, X0     // eight int16 codes
	VPACKSSWB X0, X0, X0     // eight int8 codes in the low quadword
	VMOVQ X0, AX
	XORQ R9, AX

	MOVB AL, (DI)
	SHRQ $8, AX
	MOVB AL, (DI)(DX*1)
	SHRQ $8, AX
	MOVB AL, (DI)(DX*2)
	SHRQ $8, AX
	MOVB AL, (DI)(R8*1)
	LEAQ (DI)(DX*4), DI
	SHRQ $8, AX
	MOVB AL, (DI)
	SHRQ $8, AX
	MOVB AL, (DI)(DX*1)
	SHRQ $8, AX
	MOVB AL, (DI)(DX*2)
	SHRQ $8, AX
	MOVB AL, (DI)(R8*1)
	LEAQ (DI)(DX*4), DI

	ADDQ $32, SI
	DECQ CX
	JNZ  loop

	VZEROUPPER

done:
	RET
