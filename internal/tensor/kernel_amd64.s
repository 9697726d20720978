#include "textflag.h"

// gemmBlocks computes dst columns [0, cols) of gemm in SSE2 (kernel.go).
// Each block of w columns (16, 8, 4 or 2, widest first) runs over every
// dst row: its sums start at +0 (XORPD), take one MULPD and one ADDPD per
// k in ascending k, and are then stored, or added to dst once. The 4- and
// 2-wide blocks walk four rows at a time so that narrow blocks still keep
// four or more independent add chains in flight; left-over rows run one at
// a time.
//
// Registers:
//   SI       b at the current block's first column
//   R8, R9   lda and ldak in bytes
//   R10, R11 ldb and ldd in bytes
//   AX       a at the current row's k = 0
//   BX       dst at the current row and block
//   R12      rows left in the current block
//   DX, DI   a walks down k (DI for rows 2 and 3 of a four-row group)
//   R13      b walks down k
//   CX       k steps left
//   X0-X7    sums
//   X8-X11   a elements, broadcast to both lanes
//   X12-X14  b pairs and products

// BCAST loads the float64 at addr into both lanes of x.
#define BCAST(addr, x) \
	MOVSD    addr, x; \
	UNPCKLPD x, x

// MAC adds the broadcast a in ax times the b pair at off(R13) to sum.
#define MAC(off, ax, tmp, sum) \
	MOVUPD off(R13), tmp; \
	MULPD  ax, tmp; \
	ADDPD  tmp, sum

// MACR adds the broadcast a in ax times the b pair held in bx to sum.
#define MACR(bx, ax, sum) \
	MOVAPD bx, X14; \
	MULPD  ax, X14; \
	ADDPD  X14, sum

// PUT stores sum at off(p); ADDTO adds sum to the pair at off(p).
#define PUT(sum, off, p) \
	MOVUPD sum, off(p)

#define ADDTO(sum, off, p) \
	MOVUPD off(p), X14; \
	ADDPD  sum, X14; \
	MOVUPD X14, off(p)

// func gemmBlocks(dst, a, b []float64, rows, cols, k, lda, ldak, ldb, ldd int, accumulate bool)
TEXT ·gemmBlocks(SB), NOSPLIT, $0-129
	MOVQ b_base+48(FP), SI
	MOVQ lda+96(FP), R8
	SHLQ $3, R8
	MOVQ ldak+104(FP), R9
	SHLQ $3, R9
	MOVQ ldb+112(FP), R10
	SHLQ $3, R10
	MOVQ ldd+120(FP), R11
	SHLQ $3, R11

next:
	// DX = byte offset of the block's first column; CX = bytes left.
	MOVQ SI, DX
	SUBQ b_base+48(FP), DX
	MOVQ dst_base+0(FP), BX
	ADDQ DX, BX
	MOVQ cols+80(FP), CX
	SHLQ $3, CX
	SUBQ DX, CX
	MOVQ a_base+24(FP), AX
	MOVQ rows+72(FP), R12
	TESTQ R12, R12
	JZ   done
	CMPQ CX, $128
	JGE  wide16
	CMPQ CX, $64
	JGE  wide8
	CMPQ CX, $32
	JGE  wide4
	CMPQ CX, $16
	JGE  wide2

done:
	RET

// 16 columns, one row at a time: eight sums.
wide16:
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	MOVQ  AX, DX
	MOVQ  SI, R13
	MOVQ  k+88(FP), CX
	TESTQ CX, CX
	JZ    wide16sum

wide16k:
	BCAST((DX), X8)
	MAC(0, X8, X12, X0)
	MAC(16, X8, X13, X1)
	MAC(32, X8, X14, X2)
	MAC(48, X8, X12, X3)
	MAC(64, X8, X13, X4)
	MAC(80, X8, X14, X5)
	MAC(96, X8, X12, X6)
	MAC(112, X8, X13, X7)
	ADDQ R9, DX
	ADDQ R10, R13
	DECQ CX
	JNZ  wide16k

wide16sum:
	CMPB accumulate+128(FP), $0
	JNE  wide16add
	PUT(X0, 0, BX)
	PUT(X1, 16, BX)
	PUT(X2, 32, BX)
	PUT(X3, 48, BX)
	PUT(X4, 64, BX)
	PUT(X5, 80, BX)
	PUT(X6, 96, BX)
	PUT(X7, 112, BX)
	JMP  wide16row

wide16add:
	ADDTO(X0, 0, BX)
	ADDTO(X1, 16, BX)
	ADDTO(X2, 32, BX)
	ADDTO(X3, 48, BX)
	ADDTO(X4, 64, BX)
	ADDTO(X5, 80, BX)
	ADDTO(X6, 96, BX)
	ADDTO(X7, 112, BX)

wide16row:
	ADDQ R8, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  wide16
	ADDQ $128, SI
	JMP  next

// 8 columns, one row at a time: four sums.
wide8:
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	MOVQ  AX, DX
	MOVQ  SI, R13
	MOVQ  k+88(FP), CX
	TESTQ CX, CX
	JZ    wide8sum

wide8k:
	BCAST((DX), X8)
	MAC(0, X8, X12, X0)
	MAC(16, X8, X13, X1)
	MAC(32, X8, X14, X2)
	MAC(48, X8, X12, X3)
	ADDQ R9, DX
	ADDQ R10, R13
	DECQ CX
	JNZ  wide8k

wide8sum:
	CMPB accumulate+128(FP), $0
	JNE  wide8add
	PUT(X0, 0, BX)
	PUT(X1, 16, BX)
	PUT(X2, 32, BX)
	PUT(X3, 48, BX)
	JMP  wide8row

wide8add:
	ADDTO(X0, 0, BX)
	ADDTO(X1, 16, BX)
	ADDTO(X2, 32, BX)
	ADDTO(X3, 48, BX)

wide8row:
	ADDQ R8, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  wide8
	ADDQ $64, SI
	JMP  next

// 4 columns, four rows at a time: eight sums, X(2r) and X(2r+1) for row r.
wide4:
	CMPQ  R12, $4
	JLT   wide4one
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	MOVQ  AX, DX
	LEAQ  (AX)(R8*2), DI
	MOVQ  SI, R13
	MOVQ  k+88(FP), CX
	TESTQ CX, CX
	JZ    wide4sum4

wide4k4:
	BCAST((DX), X8)
	BCAST((DX)(R8*1), X9)
	BCAST((DI), X10)
	BCAST((DI)(R8*1), X11)
	MOVUPD (R13), X12
	MOVUPD 16(R13), X13
	MACR(X12, X8, X0)
	MACR(X13, X8, X1)
	MACR(X12, X9, X2)
	MACR(X13, X9, X3)
	MACR(X12, X10, X4)
	MACR(X13, X10, X5)
	MACR(X12, X11, X6)
	MACR(X13, X11, X7)
	ADDQ R9, DX
	ADDQ R9, DI
	ADDQ R10, R13
	DECQ CX
	JNZ  wide4k4

wide4sum4:
	// dst rows 0-3 of the group at BX, DI, R13 and CX.
	LEAQ (BX)(R11*1), DI
	LEAQ (BX)(R11*2), R13
	LEAQ (R13)(R11*1), CX
	CMPB accumulate+128(FP), $0
	JNE  wide4add4
	PUT(X0, 0, BX)
	PUT(X1, 16, BX)
	PUT(X2, 0, DI)
	PUT(X3, 16, DI)
	PUT(X4, 0, R13)
	PUT(X5, 16, R13)
	PUT(X6, 0, CX)
	PUT(X7, 16, CX)
	JMP  wide4row4

wide4add4:
	ADDTO(X0, 0, BX)
	ADDTO(X1, 16, BX)
	ADDTO(X2, 0, DI)
	ADDTO(X3, 16, DI)
	ADDTO(X4, 0, R13)
	ADDTO(X5, 16, R13)
	ADDTO(X6, 0, CX)
	ADDTO(X7, 16, CX)

wide4row4:
	LEAQ (AX)(R8*4), AX
	LEAQ (BX)(R11*4), BX
	SUBQ $4, R12
	JMP  wide4

wide4one:
	TESTQ R12, R12
	JZ    wide4done
	XORPD X0, X0
	XORPD X1, X1
	MOVQ  AX, DX
	MOVQ  SI, R13
	MOVQ  k+88(FP), CX
	TESTQ CX, CX
	JZ    wide4sum1

wide4k1:
	BCAST((DX), X8)
	MAC(0, X8, X12, X0)
	MAC(16, X8, X13, X1)
	ADDQ R9, DX
	ADDQ R10, R13
	DECQ CX
	JNZ  wide4k1

wide4sum1:
	CMPB accumulate+128(FP), $0
	JNE  wide4add1
	PUT(X0, 0, BX)
	PUT(X1, 16, BX)
	JMP  wide4row1

wide4add1:
	ADDTO(X0, 0, BX)
	ADDTO(X1, 16, BX)

wide4row1:
	ADDQ R8, AX
	ADDQ R11, BX
	DECQ R12
	JMP  wide4one

wide4done:
	ADDQ $32, SI
	JMP  next

// 2 columns, four rows at a time: four sums, Xr for row r.
wide2:
	CMPQ  R12, $4
	JLT   wide2one
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	MOVQ  AX, DX
	LEAQ  (AX)(R8*2), DI
	MOVQ  SI, R13
	MOVQ  k+88(FP), CX
	TESTQ CX, CX
	JZ    wide2sum4

wide2k4:
	BCAST((DX), X8)
	BCAST((DX)(R8*1), X9)
	BCAST((DI), X10)
	BCAST((DI)(R8*1), X11)
	MOVUPD (R13), X12
	MACR(X12, X8, X0)
	MACR(X12, X9, X1)
	MACR(X12, X10, X2)
	MACR(X12, X11, X3)
	ADDQ R9, DX
	ADDQ R9, DI
	ADDQ R10, R13
	DECQ CX
	JNZ  wide2k4

wide2sum4:
	LEAQ (BX)(R11*1), DI
	LEAQ (BX)(R11*2), R13
	LEAQ (R13)(R11*1), CX
	CMPB accumulate+128(FP), $0
	JNE  wide2add4
	PUT(X0, 0, BX)
	PUT(X1, 0, DI)
	PUT(X2, 0, R13)
	PUT(X3, 0, CX)
	JMP  wide2row4

wide2add4:
	ADDTO(X0, 0, BX)
	ADDTO(X1, 0, DI)
	ADDTO(X2, 0, R13)
	ADDTO(X3, 0, CX)

wide2row4:
	LEAQ (AX)(R8*4), AX
	LEAQ (BX)(R11*4), BX
	SUBQ $4, R12
	JMP  wide2

wide2one:
	TESTQ R12, R12
	JZ    wide2done
	XORPD X0, X0
	MOVQ  AX, DX
	MOVQ  SI, R13
	MOVQ  k+88(FP), CX
	TESTQ CX, CX
	JZ    wide2sum1

wide2k1:
	BCAST((DX), X8)
	MAC(0, X8, X12, X0)
	ADDQ R9, DX
	ADDQ R10, R13
	DECQ CX
	JNZ  wide2k1

wide2sum1:
	CMPB accumulate+128(FP), $0
	JNE  wide2add1
	PUT(X0, 0, BX)
	JMP  wide2row1

wide2add1:
	ADDTO(X0, 0, BX)

wide2row1:
	ADDQ R8, AX
	ADDQ R11, BX
	DECQ R12
	JMP  wide2one

wide2done:
	ADDQ $16, SI
	JMP  next
