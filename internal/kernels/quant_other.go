//go:build !amd64 || noasm

package kernels

// quantizeU8 is the portable sibling of the AVX2 quantizer pass; with
// haveGemm8 constant-false QuantizeU8 never calls it.
func quantizeU8(dst []uint8, src []float32, stride int, inv float64) {
	quantizeU8Go(dst, src, stride, inv)
}
