// Package floatcmp bans == and != on floating-point operands in the
// quantization and requantization code. The paper's bit-exactness claims
// (GemvF64 vs the integer path, TR truncation vs the reference encoder)
// are proven over integer-valued float64 codes; a bare float equality in
// that code either works by accident or hides a tolerance that should be
// explicit. Comparisons must go through an epsilon, math.Float64bits for
// deliberate bit-pattern equality, or carry a //trlint:checked note.
//
// Two idioms are exempt by design: comparison against an exact integral
// zero constant (a division-by-zero or emptiness guard — epsilon would
// change semantics) and the x != x NaN probe.
//
// The same packages round with the 1.5·2^52 magic constant, which rounds
// twice: the product, then the sum. Written x*y + roundMagic, the pair
// may be fused into one FMA (Go does so on arm64), whose single rounding
// can land a tie on the other code and break bit-exactness with the
// assembly kernels. Every such round goes through kernels.RoundScaled,
// which converts the product first (an explicit conversion rounds and
// forbids the fusion); the analyzer reports ± the magic constant whose
// other operand is an unconverted float product, so a hand-written
// round elsewhere is caught. A product held in a variable first is out
// of its sight.
package floatcmp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

// Analyzer is the floatcmp pass.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "forbid ==/!= on float operands in quantization code; use epsilon or math.Float64bits",
	Run:  run,
}

// scope covers every package that carries quantized values or their
// scales (plus this analyzer's fixtures).
var scope = regexp.MustCompile(`internal/(kernels|intinfer|core|term|quant|qsim|stats|tensor)$|testdata/src/floatcmp/`)

func run(pass *analysis.Pass) error {
	if !scope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if ok && (be.Op == token.ADD || be.Op == token.SUB) {
			if fusibleRound(pass, be) {
				pass.Reportc("fusible-round", be.OpPos, "float product %s the 1.5·2^52 round constant may fuse into one FMA and round once; round through kernels.RoundScaled, which converts the product first",
					be.Op)
			}
			return true
		}
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		xt := pass.TypesInfo.Types[be.X]
		yt := pass.TypesInfo.Types[be.Y]
		if !isFloat(xt.Type) && !isFloat(yt.Type) {
			return true
		}
		if integralZero(xt) || integralZero(yt) {
			return true
		}
		if nanProbe(be) {
			return true
		}
		pass.Reportc("float-compare", be.OpPos, "%s on floating-point operands is bit-inexact; compare with an epsilon or math.Float64bits, or annotate //trlint:checked",
			be.Op)
		return true
	})
	return nil
}

// fusibleRound reports whether be adds or subtracts the round constant
// 1.5·2^52 and an unconverted float product, in either order.
func fusibleRound(pass *analysis.Pass, be *ast.BinaryExpr) bool {
	magic := constant.MakeFloat64(1.5 * (1 << 52))
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		tv := pass.TypesInfo.Types[pair[0]]
		if tv.Value == nil || !constant.Compare(constant.ToFloat(tv.Value), token.EQL, magic) {
			continue
		}
		mul, ok := ast.Unparen(pair[1]).(*ast.BinaryExpr)
		if ok && mul.Op == token.MUL && isFloat(pass.TypesInfo.Types[mul].Type) {
			return true
		}
	}
	return false
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// integralZero reports whether the operand is a constant exactly equal
// to zero.
func integralZero(tv types.TypeAndValue) bool {
	return tv.Value != nil && constant.Sign(tv.Value) == 0
}

// nanProbe recognizes x != x / x == x, the portable NaN test.
func nanProbe(be *ast.BinaryExpr) bool {
	x, ok1 := be.X.(*ast.Ident)
	y, ok2 := be.Y.(*ast.Ident)
	return ok1 && ok2 && x.Name == y.Name
}
