//go:build poolpoison && amd64

#include "textflag.h"

// func gid() uintptr
TEXT ·gid(SB),NOSPLIT,$0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET
