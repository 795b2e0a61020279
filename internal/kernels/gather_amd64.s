//go:build !noasm

// SSE2 kernels of the conv gather (ConvGather.Pack): the stage fill,
// which converts int32 codes to offset-u8 bytes and writes the 128
// borders in one pass (offsetRows, also OffsetU8's loop), its strided
// twin for stride-phased rows (offsetPhase), and the run gather, which
// interleaves the two taps of each tap pair into the 16-column B panels
// (gatherRun).

#include "textflag.h"

// Sixteen 128 bytes: the offset image of zero.
DATA bytes128<>+0(SB)/8, $0x8080808080808080
DATA bytes128<>+8(SB)/8, $0x8080808080808080
GLOBL bytes128<>(SB), RODATA|NOPTR, $16

// Four int32 128s: the offset added before packing down to bytes.
DATA add128<>+0(SB)/8, $0x0000008000000080
DATA add128<>+8(SB)/8, $0x0000008000000080
GLOBL add128<>(SB), RODATA|NOPTR, $16

// Sixteen 0xFF bytes, then sixteen zeros: the 16 bytes at 16−w keep
// lanes < w.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $0
DATA laneMask<>+24(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $32

// func gatherRun(d []uint8, stage *GatherStage, taps []int32, b, base, w, cols int)
TEXT ·gatherRun(SB), NOSPLIT, $0-88
	MOVQ  d_base+0(FP), DI
	MOVQ  stage+24(FP), R8
	MOVQ  taps_base+32(FP), SI
	MOVQ  taps_len+40(FP), CX
	MOVQ  b+56(FP), R9
	ADDQ  base+64(FP), R8 // stage address of the segment at tap offset 0
	MOVQ  w+72(FP), R10
	MOVQ  cols+80(FP), R11
	MOVOU bytes128<>(SB), X7
	MOVQ  CX, R12
	ANDQ  $1, R12 // an odd tap count ends in the pad tap
	SHRQ  $1, CX  // whole tap pairs
	CMPQ  R10, $16
	JNE   partial

	// A whole panel: two 16-byte stores per tap pair.
	TESTQ CX, CX
	JZ    fullpad

full:
	MOVLQSX   (SI), AX
	IMULQ     R9, AX
	MOVLQSX   4(SI), BX
	IMULQ     R9, BX
	MOVOU     (R8)(AX*1), X0
	MOVOU     (R8)(BX*1), X1
	MOVOU     X0, X2
	PUNPCKLBW X1, X0 // columns 0-7
	PUNPCKHBW X1, X2 // columns 8-15
	MOVOU     X0, (DI)
	MOVOU     X2, 16(DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       full

fullpad:
	TESTQ     R12, R12
	JZ        done
	MOVLQSX   (SI), AX
	IMULQ     R9, AX
	MOVOU     (R8)(AX*1), X0
	MOVOU     X0, X2
	PUNPCKLBW X7, X0
	PUNPCKHBW X7, X2
	MOVOU     X0, (DI)
	MOVOU     X2, 16(DI)
	RET

partial:
	// X6 keeps lanes < w of a run load; X5 puts 128 in the lanes past
	// w, the pad columns when cols > w. Every other segment stores only
	// its w columns, so its loads need no masking: R14 = 0 skips it.
	LEAQ  laneMask<>+16(SB), AX
	SUBQ  R10, AX
	MOVOU (AX), X6
	MOVOU X6, X5
	PANDN X7, X5
	MOVQ  R11, R14
	SUBQ  R10, R14 // cols − w
	SHLQ  $1, R11  // bytes per tap pair: 2·cols
	TESTQ CX, CX
	JZ    partpad

part:
	MOVLQSX (SI), AX
	IMULQ   R9, AX
	MOVLQSX 4(SI), BX
	IMULQ   R9, BX
	MOVOU   (R8)(AX*1), X0
	MOVOU   (R8)(BX*1), X1

partbody:
	TESTQ     R14, R14
	JZ        interleave
	PAND      X6, X0
	POR       X5, X0
	PAND      X6, X1
	POR       X5, X1

interleave:
	MOVOU     X0, X2
	PUNPCKLBW X1, X0
	PUNPCKHBW X1, X2
	// Store 2·cols bytes, leaving as soon as they are out: every tap
	// pair of a call takes the same path.
	MOVQ      DI, DX
	MOVQ      R11, R13
	CMPQ      R13, $16
	JB        tail8
	MOVOU     X0, (DX)
	SUBQ      $16, R13
	JZ        next
	ADDQ      $16, DX
	MOVOU     X2, X0
	CMPQ      R13, $16
	JB        tail8
	MOVOU     X0, (DX)
	JMP       next

tail8:
	CMPQ   R13, $8
	JB     tail4
	MOVQ   X0, (DX)
	SUBQ   $8, R13
	JZ     next
	PSRLDQ $8, X0
	ADDQ   $8, DX

tail4:
	CMPQ   R13, $4
	JB     tail2
	MOVL   X0, (DX)
	SUBQ   $4, R13
	JZ     next
	PSRLDQ $4, X0
	ADDQ   $4, DX

tail2:
	MOVQ X0, AX
	MOVW AX, (DX)

next:
	ADDQ $8, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  part

partpad:
	// The pad tap pair runs the loop body once more with 128 as its
	// second run and CX = 1, so it falls through to here again and
	// leaves with R12 cleared.
	TESTQ   R12, R12
	JZ      done
	XORQ    R12, R12
	MOVLQSX (SI), AX
	IMULQ   R9, AX
	MOVOU   (R8)(AX*1), X0
	MOVOU   X7, X1
	MOVQ    $1, CX
	JMP     partbody

done:
	RET

// func offsetRows(d []uint8, src []int32, c, h, n, side, top int)
TEXT ·offsetRows(SB), NOSPLIT, $0-88
	MOVQ  d_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  c+48(FP), R8
	MOVQ  n+64(FP), R10
	MOVQ  side+72(FP), R11
	MOVQ  top+80(FP), R12
	MOVOU bytes128<>(SB), X7
	MOVOU add128<>(SB), X6
	LEAQ  (R11)(R12*1), R13 // border before the first row: top + side

channel:
	MOVQ h+56(FP), R9

row:
	// R13 bytes of 128 before the row: its left border and, at a
	// channel edge, the borders above and below.
	MOVQ R13, CX

fill16:
	CMPQ  CX, $16
	JB    fill8
	MOVOU X7, (DI)
	ADDQ  $16, DI
	SUBQ  $16, CX
	JMP   fill16

fill8:
	CMPQ CX, $8
	JB   fill4
	MOVQ X7, (DI)
	ADDQ $8, DI
	SUBQ $8, CX

fill4:
	CMPQ CX, $4
	JB   fill2
	MOVL X7, (DI)
	ADDQ $4, DI
	SUBQ $4, CX

fill2:
	CMPQ CX, $2
	JB   fill1
	MOVW $0x8080, (DI)
	ADDQ $2, DI
	SUBQ $2, CX

fill1:
	TESTQ CX, CX
	JZ    filled
	MOVB  $0x80, (DI)
	INCQ  DI
	DECQ  CX
	JMP   fill1

filled:
	TESTQ R8, R8
	JZ    done // that was the closing border
	MOVQ  R10, CX
	CMPQ  CX, $4
	JB    cvt1

cvt16:
	CMPQ     CX, $16
	JB       cvt4
	MOVOU    (SI), X0
	MOVOU    16(SI), X1
	MOVOU    32(SI), X2
	MOVOU    48(SI), X3
	PADDL    X6, X0
	PADDL    X6, X1
	PADDL    X6, X2
	PADDL    X6, X3
	PACKSSLW X1, X0
	PACKSSLW X3, X2
	PACKUSWB X2, X0
	MOVOU    X0, (DI)
	ADDQ     $64, SI
	ADDQ     $16, DI
	SUBQ     $16, CX
	JMP      cvt16

cvt4:
	CMPQ     CX, $4
	JB       cvttail
	MOVOU    (SI), X0
	PADDL    X6, X0
	PACKSSLW X0, X0
	PACKUSWB X0, X0
	MOVL     X0, (DI)
	ADDQ     $16, SI
	ADDQ     $4, DI
	SUBQ     $4, CX
	JMP      cvt4

cvttail:
	// The last 1-3 codes of a row of at least 4: one more 4-code block
	// ending at the row's end, rewriting bytes already converted.
	TESTQ    CX, CX
	JZ       converted
	LEAQ     -16(SI)(CX*4), SI
	LEAQ     -4(DI)(CX*1), DI
	MOVOU    (SI), X0
	PADDL    X6, X0
	PACKSSLW X0, X0
	PACKUSWB X0, X0
	MOVL     X0, (DI)
	ADDQ     $16, SI
	ADDQ     $4, DI
	JMP      converted

cvt1:
	// A row of fewer than 4 codes, one at a time.
	TESTQ CX, CX
	JZ    converted
	MOVL  (SI), AX
	ADDL  $128, AX
	MOVB  AX, (DI)
	ADDQ  $4, SI
	INCQ  DI
	DECQ  CX
	JMP   cvt1

converted:
	LEAQ (R11)(R11*1), R13 // right border + the next row's left
	DECQ R9
	JNZ  row
	LEAQ (R11)(R12*1), R13
	SHLQ $1, R13           // right, bottom, next top and next left borders
	DECQ R8
	JNZ  channel
	LEAQ (R11)(R12*1), R13 // closing border: right + bottom
	JMP  row

done:
	RET

// func offsetPhase(d []uint8, src []int32, rows, px, b, step, dstRow, srcRow int)
TEXT ·offsetPhase(SB), NOSPLIT, $0-96
	MOVQ  d_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  rows+48(FP), R8
	MOVQ  px+56(FP), R9
	MOVQ  b+64(FP), R10
	MOVQ  step+72(FP), R11
	SHLQ  $2, R11 // source bytes from one pixel to the next
	MOVOU add128<>(SB), X6
	TESTQ R8, R8
	JZ    phdone
	TESTQ R9, R9
	JZ    phdone

phrow:
	// Every pixel of a call has the same width, so each width up to 4,
	// and widths 5-8, get a branch-free pixel loop of their own.
	MOVQ DI, DX  // destination of the next pixel
	MOVQ SI, BX  // source of the next pixel
	MOVQ R9, R12 // pixels left in the row
	CMPQ R10, $2
	JB   ph1
	JEQ  ph2
	CMPQ R10, $4
	JB   ph3
	JEQ  ph4
	CMPQ R10, $8
	JBE  ph8

phwide:
	// b > 8: 16- and 4-code blocks, then the last 1-3 codes as one more
	// 4-code block ending at the pixel's end.
	MOVQ BX, R13
	MOVQ DX, R14
	MOVQ R10, CX

phw16:
	CMPQ     CX, $16
	JB       phw4
	MOVOU    (R13), X0
	MOVOU    16(R13), X1
	MOVOU    32(R13), X2
	MOVOU    48(R13), X3
	PADDL    X6, X0
	PADDL    X6, X1
	PADDL    X6, X2
	PADDL    X6, X3
	PACKSSLW X1, X0
	PACKSSLW X3, X2
	PACKUSWB X2, X0
	MOVOU    X0, (R14)
	ADDQ     $64, R13
	ADDQ     $16, R14
	SUBQ     $16, CX
	JMP      phw16

phw4:
	CMPQ     CX, $4
	JB       phwtail
	MOVOU    (R13), X0
	PADDL    X6, X0
	PACKSSLW X0, X0
	PACKUSWB X0, X0
	MOVL     X0, (R14)
	ADDQ     $16, R13
	ADDQ     $4, R14
	SUBQ     $4, CX
	JMP      phw4

phwtail:
	TESTQ    CX, CX
	JZ       phwnext
	LEAQ     -16(R13)(CX*4), R13
	LEAQ     -4(R14)(CX*1), R14
	MOVOU    (R13), X0
	PADDL    X6, X0
	PACKSSLW X0, X0
	PACKUSWB X0, X0
	MOVL     X0, (R14)

phwnext:
	ADDQ R11, BX
	ADDQ R10, DX
	DECQ R12
	JNZ  phwide
	JMP  phnext

ph1:
	MOVL (BX), AX
	ADDL $128, AX
	MOVB AX, (DX)
	INCQ DX
	ADDQ R11, BX
	DECQ R12
	JNZ  ph1
	JMP  phnext

ph2:
	MOVQ     (BX), X0
	PADDL    X6, X0
	PACKSSLW X0, X0
	PACKUSWB X0, X0
	MOVQ     X0, AX
	MOVW     AX, (DX)
	ADDQ     $2, DX
	ADDQ     R11, BX
	DECQ     R12
	JNZ      ph2
	JMP      phnext

ph3:
	MOVQ       (BX), X0
	MOVL       8(BX), X1
	PUNPCKLQDQ X1, X0
	PADDL      X6, X0
	PACKSSLW   X0, X0
	PACKUSWB   X0, X0
	MOVQ       X0, AX
	MOVW       AX, (DX)
	SHRQ       $16, AX
	MOVB       AX, 2(DX)
	ADDQ       $3, DX
	ADDQ       R11, BX
	DECQ       R12
	JNZ        ph3

	JMP        phnext

ph4:
	MOVOU    (BX), X0
	PADDL    X6, X0
	PACKSSLW X0, X0
	PACKUSWB X0, X0
	MOVL     X0, (DX)
	ADDQ     $4, DX
	ADDQ     R11, BX
	DECQ     R12
	JNZ      ph4
	JMP      phnext

ph8:
	// 4 < b ≤ 8: the first and the last four codes, overlapping when
	// b < 8.
	LEAQ     -16(BX)(R10*4), R13
	LEAQ     -4(DX)(R10*1), R14
	MOVOU    (BX), X0
	MOVOU    (R13), X1
	PADDL    X6, X0
	PADDL    X6, X1
	PACKSSLW X0, X0
	PACKSSLW X1, X1
	PACKUSWB X0, X0
	PACKUSWB X1, X1
	MOVL     X0, (DX)
	MOVL     X1, (R14)
	ADDQ     R10, DX
	ADDQ     R11, BX
	DECQ     R12
	JNZ      ph8

phnext:
	ADDQ dstRow+80(FP), DI
	MOVQ srcRow+88(FP), AX
	SHLQ $2, AX
	ADDQ AX, SI
	DECQ R8
	JNZ  phrow

phdone:
	RET
