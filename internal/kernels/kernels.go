// Package kernels holds the integer compute kernels the deployment
// runtime (internal/intinfer) lowers to: the packed int8 GEMM (weights
// packed once into row panels, activations as offset-u8 column panels
// written by PackB or, for a conv, straight from the input by a
// ConvGather table, requantization fused into the 4×16 tile; see
// pack8.go) and a float64-carried GEMV for single-column linears. Codes
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
			dst[r] = clampF((sums[0]+bias[r])*mult+roundMagic-roundMagic, lo, hi)
			dst[r+1] = clampF((sums[1]+bias[r+1])*mult+roundMagic-roundMagic, lo, hi)
			dst[r+2] = clampF((sums[2]+bias[r+2])*mult+roundMagic-roundMagic, lo, hi)
			dst[r+3] = clampF((sums[3]+bias[r+3])*mult+roundMagic-roundMagic, lo, hi)
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
		dst[r] = clampF((s0+bias[r])*mult+roundMagic-roundMagic, lo, hi)
		dst[r+1] = clampF((s1+bias[r+1])*mult+roundMagic-roundMagic, lo, hi)
		dst[r+2] = clampF((s2+bias[r+2])*mult+roundMagic-roundMagic, lo, hi)
		dst[r+3] = clampF((s3+bias[r+3])*mult+roundMagic-roundMagic, lo, hi)
	}
	for ; r < r1; r++ {
		s := bias[r] + DotF64(a[r*k:][:k], x)
		dst[r] = clampF(s*mult+roundMagic-roundMagic, lo, hi)
	}
}

// roundMagic rounds half-to-even without a ROUNDSD: adding and
// subtracting 1.5·2^52 makes the FPU (default round-to-nearest-even
// mode) round at the unit boundary. Exact for |v| < 2^51; larger values
// round coarser but land outside every requant clamp range regardless.
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
