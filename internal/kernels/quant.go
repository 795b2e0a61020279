package kernels

// quantize is the input quantizer's scalar step and the one reference
// for QuantizeU8: the pixel times the reciprocal scale inv, rounded
// half-to-even by RoundScaled and clamped to the code window
// [−127, 127]. ±Inf saturates like any out-of-range value; NaN fails
// both clamps and maps to code 0 explicitly rather than to int32(NaN),
// whose value Go leaves implementation-defined.
//
// The in-range case is tested first (both comparisons are false for
// NaN), so ±127 and NaN are sorted out on the cold path.
func quantize(v float32, inv float64) int32 {
	c := RoundScaled(float64(v), inv)
	if c >= -127 && c <= 127 {
		return int32(c)
	}
	if c > 127 {
		return 127
	}
	if c < -127 {
		return -127
	}
	return 0 // NaN
}

// QuantizeU8 quantizes one image's pixels into offset-u8 codes at a
// byte stride: pixel i lands at dst[i·stride] as quantize(src[i], inv)
// + 128, and no other byte of dst is written. A stride of b writes
// column j of a chunk's batch-innermost k×b matrix when dst starts at
// byte j; a stride of 1 writes one image's codes contiguously.
//
// On AVX2 hosts the pixels run through quantizeU8 eight at a time,
// with the same IEEE double operations in the same order as quantize,
// so every code is bit-identical; the len(src) % 8 tail, and every
// pixel on other hosts, takes the scalar step.
func QuantizeU8(dst []uint8, src []float32, stride int, inv float64) {
	if len(src) == 0 {
		return
	}
	_ = dst[(len(src)-1)*stride] // the assembly stores unchecked up to this byte
	n := 0
	if haveGemm8 {
		n = len(src) &^ 7
		quantizeU8(dst, src[:n], stride, inv)
	}
	if n < len(src) {
		quantizeU8Go(dst[n*stride:], src[n:], stride, inv)
	}
}

// quantizeU8Go is the portable pass: the scalar step pixel by pixel.
func quantizeU8Go(dst []uint8, src []float32, stride int, inv float64) {
	for i, v := range src {
		dst[i*stride] = uint8(quantize(v, inv) + 128) //trlint:checked quantize returns a code in [-127, 127]
	}
}
