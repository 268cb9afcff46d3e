#include "textflag.h"

// func getfp() unsafe.Pointer
//
// Frameless and NOSPLIT, so the assembler saves no frame pointer of its own
// and BP is still the caller's.
TEXT ·getfp(SB),NOSPLIT,$0-8
	MOVQ	BP, ret+0(FP)
	RET
