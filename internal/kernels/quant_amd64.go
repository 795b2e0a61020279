//go:build amd64 && !noasm

package kernels

// Implemented in quant_amd64.s. It shares the packed kernels' AVX2 gate
// (haveGemm8): QuantizeU8 calls it only when that gate reports true.

// quantizeU8 is QuantizeU8's vector pass (see quantizeU8Go, its
// reference): len(src), a multiple of 8, pixels converted eight at a
// time and stored one byte each at dst[i·stride]. The caller has
// bounds-checked the last strided byte.
//
//go:noescape
func quantizeU8(dst []uint8, src []float32, stride int, inv float64)
