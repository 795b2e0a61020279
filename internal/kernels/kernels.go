// Package kernels holds the integer compute kernels the deployment
// runtime (internal/intinfer) lowers to: the packed int8 GEMM (weights
// packed once into row panels, activations as offset-u8 column panels
// written by PackB or, for a conv, straight from the staged input by a
// ConvGather, requantization fused into the 4×16 tile; see
// pack8.go), a float64-carried GEMV for single-column linears, and the
// input quantizer that turns float32 pixels into offset-u8 codes
// (QuantizeU8, quant.go). Codes
// are int8-range (|v| ≤ 127 for activations, weights bounded by the
// quantizer's bit width); AccumFitsU8 and ExactF64 are the build-time
// bounds under which each kernel's arithmetic is exact. The kernels are
// allocation-free: every output and scratch buffer is caller-provided,
// which is what lets the inference arena keep steady-state heap traffic
// at zero.
package kernels

// ExactF64 reports whether a dot product of length k with |w| ≤ wmax,
// |x| ≤ xmax and |bias| ≤ biasMax stays exactly representable in float64
// arithmetic: every partial sum is an integer below 2^53, so float64
// multiply-adds produce the same value as int64 ones. This is the
// admission test for the GemvF64 fast path.
func ExactF64(k int, wmax, xmax, biasMax int64) bool {
	return int64(k)*wmax*xmax+biasMax < 1<<53
}

// GemvF64 computes rows [r0, r1) of A·x for the m×k row-major matrix A,
// carrying the codes as float64 with the requantization fused: each
// accumulator plus its bias is scaled by mult, rounded half-to-even and
// clamped to [lo, hi]. The results are integral code values stored as
// float64. Callers guarantee exactness via
// ExactF64, which makes the result bit-identical to the int64 reference —
// the payoff is that scalar float64 multiplies dual-issue on the FP
// ports while int32 multiplies are restricted to one port.
func GemvF64(dst, a, x, bias []float64, r0, r1, k int, mult, lo, hi float64) {
	if haveFMA && k >= 8 {
		gemvF64ASM.Inc()
	} else {
		gemvF64Portable.Inc()
	}
	xx := x[:k]
	r := r0
	if haveFMA && k >= 8 {
		// AVX2+FMA microkernel: four rows per call, eight vector lanes.
		// The lane-parallel sum order differs from the scalar loop but
		// every partial sum is an exact integer, so the results match
		// bit for bit.
		var sums [4]float64
		for ; r+4 <= r1; r += 4 {
			gemv4fma(&sums[0], &a[r*k], &xx[0], k)
			dst[r] = clampF(RoundScaled(sums[0]+bias[r], mult), lo, hi)
			dst[r+1] = clampF(RoundScaled(sums[1]+bias[r+1], mult), lo, hi)
			dst[r+2] = clampF(RoundScaled(sums[2]+bias[r+2], mult), lo, hi)
			dst[r+3] = clampF(RoundScaled(sums[3]+bias[r+3], mult), lo, hi)
		}
	}
	for ; r+4 <= r1; r += 4 {
		a0 := a[(r+0)*k:][:k]
		a1 := a[(r+1)*k:][:k]
		a2 := a[(r+2)*k:][:k]
		a3 := a[(r+3)*k:][:k]
		var s0, s1, s2, s3 float64
		q := 0
		for ; q+2 <= k; q += 2 {
			x0, x1 := xx[q], xx[q+1]
			s0 += a0[q]*x0 + a0[q+1]*x1
			s1 += a1[q]*x0 + a1[q+1]*x1
			s2 += a2[q]*x0 + a2[q+1]*x1
			s3 += a3[q]*x0 + a3[q+1]*x1
		}
		if q < k {
			x0 := xx[q]
			s0 += a0[q] * x0
			s1 += a1[q] * x0
			s2 += a2[q] * x0
			s3 += a3[q] * x0
		}
		dst[r] = clampF(RoundScaled(s0+bias[r], mult), lo, hi)
		dst[r+1] = clampF(RoundScaled(s1+bias[r+1], mult), lo, hi)
		dst[r+2] = clampF(RoundScaled(s2+bias[r+2], mult), lo, hi)
		dst[r+3] = clampF(RoundScaled(s3+bias[r+3], mult), lo, hi)
	}
	for ; r < r1; r++ {
		s := bias[r] + DotF64(a[r*k:][:k], x)
		dst[r] = clampF(RoundScaled(s, mult), lo, hi)
	}
}

// RoundScaled returns x·m rounded half-to-even, as an integral float64:
// the one round the input quantizer and every requantization share.
// Adding and subtracting roundMagic (1.5·2^52) makes the FPU (default
// round-to-nearest-even mode) round at the unit boundary, without a
// ROUNDSD. Exact for |x·m| < 2^51; larger values round coarser but land
// outside every clamp window regardless. The product is converted
// before the add: Go may otherwise fuse the multiply and the add into
// one FMA (it does on arm64), which rounds once where the assembly
// kernels round twice and can move a tie to the neighbouring code.
// trlint's floatcmp reports the unconverted form anywhere else.
func RoundScaled(x, m float64) float64 {
	return float64(x*m) + roundMagic - roundMagic
}

const roundMagic = 1.5 * (1 << 52)

// DotF64 returns the float64 dot product of a and x (len(x) ≥ len(a)),
// unrolled two wide with independent accumulators.
func DotF64(a, x []float64) float64 {
	var s0, s1 float64
	q := 0
	x = x[:len(a)]
	for ; q+2 <= len(a); q += 2 {
		s0 += a[q] * x[q]
		s1 += a[q+1] * x[q+1]
	}
	if q < len(a) {
		s0 += a[q] * x[q]
	}
	return s0 + s1
}

func clampF(v, lo, hi float64) float64 {
	if v > hi {
		return hi
	}
	if v < lo {
		return lo
	}
	return v
}
