//go:build amd64

#include "textflag.h"

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// pivotMask<>+32*lane selects the lanes past lane: the pivot panel's
// columns that the reflector still has to update.
DATA pivotMask<>+0(SB)/8, $0
DATA pivotMask<>+8(SB)/8, $-1
DATA pivotMask<>+16(SB)/8, $-1
DATA pivotMask<>+24(SB)/8, $-1
DATA pivotMask<>+32(SB)/8, $0
DATA pivotMask<>+40(SB)/8, $0
DATA pivotMask<>+48(SB)/8, $-1
DATA pivotMask<>+56(SB)/8, $-1
DATA pivotMask<>+64(SB)/8, $0
DATA pivotMask<>+72(SB)/8, $0
DATA pivotMask<>+80(SB)/8, $0
DATA pivotMask<>+88(SB)/8, $-1
GLOBL pivotMask<>(SB), RODATA|NOPTR, $96

// Row AX of the dot pass: Y0 and Y1 accumulate v[i]·c[i] for the two
// panels, lane by lane, v broadcast from vb.
#define DOT(vb) VBROADCASTSD (vb)(AX*1), Y5; VMULPD (DI)(AX*1), Y5, Y8; VADDPD Y8, Y0, Y0; VMULPD (R8)(AX*1), Y5, Y9; VADDPD Y9, Y1, Y1

// Row AX of the update pass: c[i] += s·v[i] with s in Y2 and Y3, v from vb,
// leaving the new rows in Y6 and Y7. Both panels are loaded before either
// is stored, so a panel passed twice gets the same bits twice.
#define UPD(vb) VBROADCASTSD (vb)(AX*1), Y4; VMULPD Y2, Y4, Y6; VADDPD (DI)(AX*1), Y6, Y6; VMULPD Y3, Y4, Y7; VADDPD (R8)(AX*1), Y7, Y7; VMOVUPD Y6, (DI)(AX*1); VMOVUPD Y7, (R8)(AX*1)

// Row AX of a fused pass: the previous reflector's update (v from R11),
// then the current reflector's dot (v from R12) with the updated rows.
#define FUSED UPD(R11); VBROADCASTSD (R12)(AX*1), Y5; VMULPD Y6, Y5, Y8; VADDPD Y8, Y0, Y0; VMULPD Y7, Y5, Y9; VADDPD Y9, Y1, Y1

// func blockAVX2(c *float64, pstride, npan int, v *float64, rs *reflector, nr, lane int)
//
// blockAVX2 is blockGo in AVX2: the same products, the same row-order sums,
// the same -s/dk and the same updates, four columns to a register, with
// multiplies and adds as separate instructions (no FMA), so every lane
// rounds exactly as the scalar loop does. It walks each panel once per
// reflector, plus once: the pass that applies reflector r also sums
// reflector r+1's dot products over the rows it has just updated, which is
// the row order that sum has anyway. One panel is processed as two
// aliases of itself.
TEXT ·blockAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ DI, R8
	MOVQ npan+16(FP), AX
	CMPQ AX, $2
	JNE  one
	MOVQ pstride+8(FP), R8
	LEAQ (DI)(R8*8), R8

one:
	MOVQ     v+24(FP), SI
	MOVQ     rs+32(FP), R9
	MOVQ     nr+40(FP), R10
	VPCMPEQQ Y10, Y10, Y10
	VPSLLQ   $63, Y10, Y10

	// The first reflector's dot products, rows [lo, hi); its vector is
	// lane lo of v.
	MOVQ   0(R9), AX
	LEAQ   (SI)(AX*8), R12
	SHLQ   $5, AX
	MOVQ   8(R9), CX
	SHLQ   $5, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP    dotcheck

scale:
	// s = -s/dk: flip the sign bit, then divide. The current reflector
	// becomes the previous one: v in R11, rows [BX, DX).
	VBROADCASTSD 16(R9), Y11
	VXORPD       Y10, Y0, Y2
	VDIVPD       Y11, Y2, Y2
	VXORPD       Y10, Y1, Y3
	VDIVPD       Y11, Y3, Y3
	MOVQ         R12, R11
	MOVQ         0(R9), BX
	SHLQ         $5, BX
	MOVQ         8(R9), DX
	SHLQ         $5, DX
	ADDQ         $24, R9
	DECQ         R10
	JZ           last

	// The next reflector: v in R12, rows from R13.
	MOVQ   0(R9), R13
	LEAQ   (SI)(R13*8), R12
	SHLQ   $5, R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

	// Rows [lo_prev, min(lo, hi_prev)): update only.
	MOVQ    BX, AX
	MOVQ    R13, CX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	JMP     updcheck

upd:
	UPD(R11)
	ADDQ $32, AX

updcheck:
	CMPQ AX, CX
	JLT  upd

	// Rows [lo, hi_prev): update and dot.
	MOVQ R13, AX
	JMP  fusedcheck

fused:
	FUSED
	ADDQ $32, AX

fusedcheck:
	CMPQ AX, DX
	JLT  fused

	// Rows [max(lo, hi_prev), hi): dot only.
	MOVQ    R13, AX
	CMPQ    DX, AX
	CMOVQGT DX, AX
	MOVQ    8(R9), CX
	SHLQ    $5, CX
	JMP     dotcheck

dot:
	DOT(R12)
	ADDQ $32, AX

dotcheck:
	CMPQ AX, CX
	JLT  dot
	JMP  scale

last:
	// The last reflector's update, rows [BX, DX).
	MOVQ  BX, AX
	MOVQ  lane+48(FP), CX
	TESTQ CX, CX
	JS    lastupd

	// Pivot panel: blend, so only the lanes past the pivot change.
	LEAQ    pivotMask<>(SB), R13
	SHLQ    $5, CX
	VMOVUPD (R13)(CX*1), Y12

lastmask:
	VBROADCASTSD (R11)(AX*1), Y4
	VMOVUPD      (DI)(AX*1), Y6
	VMULPD       Y2, Y4, Y8
	VADDPD       Y6, Y8, Y8
	VBLENDVPD    Y12, Y8, Y6, Y8
	VMOVUPD      Y8, (DI)(AX*1)
	ADDQ         $32, AX
	CMPQ         AX, DX
	JLT          lastmask
	JMP          done

lastupd:
	UPD(R11)
	ADDQ $32, AX
	CMPQ AX, DX
	JLT  lastupd

done:
	VZEROUPPER
	RET
