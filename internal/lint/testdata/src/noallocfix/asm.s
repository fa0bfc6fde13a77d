#include "textflag.h"

// func scaleKernel(p *float64, n int)
TEXT ·scaleKernel(SB), NOSPLIT, $0-16
	RET
