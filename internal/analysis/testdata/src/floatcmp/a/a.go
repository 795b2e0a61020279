// Fixture: float comparisons floatcmp must flag.
package a

func bad(x, y float64, s []float32) bool {
	if x == y { // want "== on floating-point operands is bit-inexact"
		return true
	}
	return s[0] != float32(y) // want "!= on floating-point operands is bit-inexact"
}

const roundMagic = 1.5 * (1 << 52)

// Rounds whose product may fuse with the magic add into one FMA.
func fusible(x, m float64, v float32, acc int32) (float64, float64, float64, float64) {
	a := x*m + roundMagic - roundMagic          // want "may fuse into one FMA"
	b := float64(v)*m + roundMagic - roundMagic // want "may fuse into one FMA"
	c := roundMagic + (float64(acc) * m)        // want "may fuse into one FMA"
	d := x*m - 1.5*(1<<52)                      // want "may fuse into one FMA"
	return a, b, c, d
}
