//go:build !noasm

// SSE2 run gather for the batched conv pack (ConvGather.Pack). Per tap
// pair it loads the 16 staged bytes at each of the pair's two elements
// (the run's images sit contiguously there), interleaves them with one
// PUNPCKLBW/PUNPCKHBW pair, and stores exactly 2·run bytes, so columns
// outside the run keep what earlier runs wrote.

#include "textflag.h"

// func gatherRun(d []uint8, t []uint16, stage *GatherStage, kq, b, j, run int)
TEXT ·gatherRun(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), DI
	MOVQ t_base+24(FP), SI
	MOVQ stage+48(FP), R8
	MOVQ kq+56(FP), CX
	MOVQ b+64(FP), R9
	MOVQ j+72(FP), R10
	MOVQ run+80(FP), R11
	ADDQ R10, R8 // stage base of image j
	SHLQ $1, R11 // bytes per tap pair: 2·run
	TESTQ CX, CX
	JZ   done

loop:
	MOVWQZX (SI), AX
	IMULQ   R9, AX
	MOVWQZX 2(SI), BX
	IMULQ   R9, BX
	MOVOU   (R8)(AX*1), X0
	MOVOU   (R8)(BX*1), X1
	MOVOU   X0, X2
	PUNPCKLBW X1, X0 // columns 0-7 of the run
	PUNPCKHBW X1, X2 // columns 8-15
	MOVQ    DI, DX
	MOVQ    R11, R12
	CMPQ    R12, $16
	JB      tail8
	MOVOU   X0, (DX)
	ADDQ    $16, DX
	SUBQ    $16, R12
	MOVOU   X2, X0
	CMPQ    R12, $16
	JB      tail8
	MOVOU   X0, (DX)
	JMP     next

tail8:
	CMPQ  R12, $8
	JB    tail4
	MOVQ  X0, (DX)
	PSRLDQ $8, X0
	ADDQ  $8, DX
	SUBQ  $8, R12

tail4:
	CMPQ  R12, $4
	JB    tail2
	MOVL  X0, (DX)
	PSRLDQ $4, X0
	ADDQ  $4, DX
	SUBQ  $4, R12

tail2:
	TESTQ R12, R12
	JZ    next
	MOVQ  X0, AX
	MOVW  AX, (DX)

next:
	ADDQ $64, SI // 32 table entries per tap pair
	ADDQ $32, DI // 32 packed bytes per tap pair
	DECQ CX
	JNZ  loop

done:
	RET
