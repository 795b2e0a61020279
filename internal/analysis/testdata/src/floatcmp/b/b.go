// Fixture: float comparisons floatcmp must accept — the exact-zero
// guard, the NaN probe, bit-pattern equality through math.Float64bits,
// an explicit epsilon, and the //trlint:checked escape hatch.
package b

import "math"

const eps = 1e-9

func good(x, y float64) bool {
	if x == 0 { // exact integral zero: a division guard, exempt by design
		return false
	}
	if x != x { // NaN probe, exempt by design
		return false
	}
	if math.Float64bits(x) == math.Float64bits(y) { // uint64 compare
		return true
	}
	if d := x - y; d < eps && d > -eps { // explicit tolerance
		return true
	}
	legacy := x == y //trlint:checked fixture: the suppression directive is honoured
	return legacy
}

const roundMagic = 1.5 * (1 << 52)

// Rounds the compiler cannot fuse: the product is converted, so it is
// rounded before the magic add; a sum, a bare value or another constant
// has no product to fuse.
func rounds(x, m, bias float64, acc int32) (float64, float64, float64, float64) {
	a := float64(x*m) + roundMagic - roundMagic
	b := float64(float64(acc)*m) + roundMagic - roundMagic
	c := (x+bias)*m + 0.5
	d := x + roundMagic - roundMagic
	return a, b, c, d
}
