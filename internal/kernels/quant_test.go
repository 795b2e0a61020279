package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// quantPixels returns n pixels for scale s: random values across and
// past the code window, mixed with the values the quantizer must treat
// exactly — NaN, ±Inf, ±0, subnormals, ±1e30 and ±(m+½)·s, the ties
// the half-to-even round decides.
func quantPixels(rng *rand.Rand, n int, s float32) []float32 {
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), 1e30, -1e30,
		127 * s, -127 * s, 128 * s, -128 * s,
	}
	px := make([]float32, n)
	for i := range px {
		switch rng.Intn(4) {
		case 0:
			px[i] = special[rng.Intn(len(special))]
		case 1:
			m := float32(rng.Intn(300) - 150)
			px[i] = (m + 0.5) * s
		default:
			px[i] = float32(rng.NormFloat64()*80) * s
		}
	}
	return px
}

// TestQuantizeU8MatchesQuantize drives the AVX2 pass (quantizeU8, when
// the host has it) and the QuantizeU8 wrapper against the scalar step,
// code for code: strides 1–64, lengths 0–200 (every len % 8 tail),
// power-of-two scales whose half-steps are exact ties, and random
// scales. dst sits in a buffer pre-filled with a marker, with guard
// bytes on both sides, so a store anywhere but the strided bytes shows.
func TestQuantizeU8MatchesQuantize(t *testing.T) {
	const marker, guard = 0xA5, 32
	rng := rand.New(rand.NewSource(24))
	scales := []float32{1, 1.0 / 64, 1.0 / 1024, 0.5}
	for range 4 {
		scales = append(scales, float32(math.Exp(rng.Float64()*12-9)))
	}
	for _, s := range scales {
		inv := 1 / float64(s)
		for stride := 1; stride <= 64; stride++ {
			for n := 0; n <= 200; n++ {
				src := quantPixels(rng, n, s)
				need := 0
				if n > 0 {
					need = (n-1)*stride + 1
				}
				buf := make([]uint8, guard+need+guard)
				for i := range buf {
					buf[i] = marker
				}
				dst := buf[guard : guard+need]
				if haveGemm8 {
					quantizeU8(dst, src[:n&^7], stride, inv)
					checkQuant(t, buf, guard, src[:n&^7], stride, inv, marker, "quantizeU8")
					for i := range buf {
						buf[i] = marker
					}
				}
				QuantizeU8(dst, src, stride, inv)
				checkQuant(t, buf, guard, src, stride, inv, marker, "QuantizeU8")
			}
		}
	}
}

// checkQuant asserts that buf holds quantize(src[i], inv) + 128 at
// guard + i·stride and the marker everywhere else.
func checkQuant(t *testing.T, buf []uint8, guard int, src []float32, stride int, inv float64, marker uint8, name string) {
	t.Helper()
	next := 0 // index of the next pixel's byte
	for i, got := range buf {
		want := marker
		if off := i - guard; off >= 0 && next < len(src) && off == next*stride {
			want = uint8(quantize(src[next], inv) + 128)
			next++
		}
		if got != want {
			t.Fatalf("%s: stride %d, %d pixels, inv %v: byte %d (pixel offset %d): got %d, want %d",
				name, stride, len(src), inv, i, i-guard, got, want)
		}
	}
}

// TestQuantizeDoesNotFuse pins the two roundings of the quantizer's
// step. With s_in = float32 bits 0x3d8137e6, the pixel −s_in/2 times
// 1/s_in rounds to exactly −0.5, a tie that rounds to even, code 0; an
// FMA of the same product and the magic constant rounds once, from just
// below −0.5, to −1. A compiler that fused the step (Go may, on arm64,
// unless the product is converted) would give the second answer.
func TestQuantizeDoesNotFuse(t *testing.T) {
	s := math.Float32frombits(0x3d8137e6)
	v := math.Float32frombits(0xbd0137e6)
	if v != -s/2 {
		t.Fatalf("pixel %v is not −s/2 for s = %v", v, s)
	}
	inv := 1 / float64(s)
	if got := quantize(v, inv); got != 0 {
		t.Fatalf("quantize(−s/2) = %d, want 0", got)
	}
	if fused := math.FMA(float64(v), inv, roundMagic) - roundMagic; fused != -1 {
		t.Fatalf("fused round of −s/2 = %v, want −1 (the pixel no longer tells the roundings apart)", fused)
	}
	src := make([]float32, 9)
	for i := range src {
		src[i] = v
	}
	dst := make([]uint8, len(src))
	QuantizeU8(dst, src, 1, inv)
	for i, c := range dst {
		if c != 128 {
			t.Fatalf("QuantizeU8(−s/2) byte %d = %d, want 128 (code 0)", i, c)
		}
	}
}
