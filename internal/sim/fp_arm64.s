#include "textflag.h"

// func getfp() unsafe.Pointer
//
// NOFRAME leaf: R29 is still the caller's frame pointer.
TEXT ·getfp(SB),NOSPLIT|NOFRAME,$0-8
	MOVD	R29, ret+0(FP)
	RET
