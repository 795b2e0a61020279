// Package quantnarrow flags implicit-overflow narrowing conversions in
// the quantized data path. The inference runtime's correctness argument
// is that every int8-range code and every int32 accumulator provably
// fits its storage (kernels.AccumFitsU8 / kernels.ExactF64); a bare
// int8(x) or int32(x) on a wider value silently truncates the moment
// that argument breaks, which is exactly the class of bit-level hazard
// the paper's encodings manage explicitly. A conversion is accepted only
// when the operand is statically bounded: a representable constant, a
// mask (x & c) that fits the destination, a clamp/saturate call, or —
// since the dataflow tier — an operand whose interval analysis
// (internal/analysis/dataflow) proves the value fits the destination
// domain, which retires most of the old //trlint:checked escapes.
// Anything else needs a //trlint:checked justification.
package quantnarrow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the quantnarrow pass.
var Analyzer = &analysis.Analyzer{
	Name: "quantnarrow",
	Doc:  "flag implicit narrowing conversions on quantized values unless clamped, masked, interval-proven, or //trlint:checked",
	Run:  run,
}

// scope restricts the analyzer to the packages whose arithmetic carries
// the paper's quantization invariants (plus this analyzer's fixtures).
var scope = regexp.MustCompile(`internal/(kernels|intinfer|core|term)$|testdata/src/quantnarrow/`)

// clampRE matches callee names that bound their result by construction.
var clampRE = regexp.MustCompile(`(?i)clamp|saturat|^sat[0-9]|^code8$`)

func run(pass *analysis.Pass) error {
	if !scope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		var facts *dataflow.IntervalFacts
		if pass.Flow != nil {
			facts = pass.Flow.FileIntervals(file)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			detail, src, dst, hazard := Hazardous(pass.TypesInfo, call)
			if !hazard || Accepted(pass.TypesInfo, facts, call) {
				return true
			}
			pass.Reportc("narrowing", call.Pos(),
				"implicit %s conversion %s -> %s may truncate; clamp or mask the operand first, or annotate //trlint:checked",
				detail, src, dst)
			return true
		})
	}
	return nil
}

// Hazardous reports whether call is a narrowing conversion this
// analyzer polices — independent of whether the operand is provably
// bounded. The strings name the hazard and the source/destination types
// for diagnostics. intrange's stale-suppression audit uses the same
// predicate, so the two analyzers cannot disagree about what counts.
func Hazardous(info *types.Info, call *ast.CallExpr) (detail, src, dst string, ok bool) {
	if len(call.Args) != 1 {
		return "", "", "", false
	}
	tv, found := info.Types[call.Fun]
	if !found || !tv.IsType() {
		return "", "", "", false
	}
	dk, found := basicKind(tv.Type)
	if !found {
		return "", "", "", false
	}
	sk, found := basicKind(info.Types[call.Args[0]].Type)
	if !found {
		return "", "", "", false
	}
	hazard, detail := narrows(dk, sk)
	if !hazard {
		return "", "", "", false
	}
	return detail, basicName(sk), basicName(dk), true
}

// Accepted reports whether the operand of a hazardous conversion is
// statically bounded: a representable constant, a fitting mask, a
// clamp/saturate callee, or an interval-analysis proof (facts may be
// nil when no dataflow cache is available).
func Accepted(info *types.Info, facts *dataflow.IntervalFacts, call *ast.CallExpr) bool {
	dk, ok := basicKind(info.Types[call.Fun].Type)
	if !ok {
		return false
	}
	arg := call.Args[0]
	if atv := info.Types[arg]; atv.Value != nil && representable(atv.Value, dk) {
		return true // constant, provably in range
	}
	if boundedExpr(info, arg, dk) {
		return true
	}
	return facts.ProvesConv(info, call)
}

// kindInfo captures the width and family of a basic numeric type.
type kindInfo struct {
	kind   types.BasicKind
	bits   int
	signed bool
	float  bool
}

func basicKind(t types.Type) (kindInfo, bool) {
	if t == nil {
		return kindInfo{}, false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return kindInfo{}, false
	}
	switch b.Kind() {
	case types.Int, types.UntypedInt:
		return kindInfo{b.Kind(), 64, true, false}, true
	case types.Int8:
		return kindInfo{b.Kind(), 8, true, false}, true
	case types.Int16:
		return kindInfo{b.Kind(), 16, true, false}, true
	case types.Int32, types.UntypedRune:
		return kindInfo{b.Kind(), 32, true, false}, true
	case types.Int64:
		return kindInfo{b.Kind(), 64, true, false}, true
	case types.Uint:
		return kindInfo{b.Kind(), 64, false, false}, true
	case types.Uint8:
		return kindInfo{b.Kind(), 8, false, false}, true
	case types.Uint16:
		return kindInfo{b.Kind(), 16, false, false}, true
	case types.Uint32:
		return kindInfo{b.Kind(), 32, false, false}, true
	case types.Uint64:
		return kindInfo{b.Kind(), 64, false, false}, true
	case types.Float32, types.Float64, types.UntypedFloat:
		return kindInfo{b.Kind(), 64, true, true}, true
	}
	return kindInfo{}, false
}

func basicName(k kindInfo) string {
	switch {
	case k.float:
		return "float"
	case k.signed:
		return intName("int", k.bits)
	default:
		return intName("uint", k.bits)
	}
}

func intName(prefix string, bits int) string {
	switch bits {
	case 8:
		return prefix + "8"
	case 16:
		return prefix + "16"
	case 32:
		return prefix + "32"
	default:
		return prefix + "64"
	}
}

// narrows reports whether converting src to dst can silently lose
// integer range: a float truncated to an integer, or a wider integer cut
// down to fewer bits. Pure sign reinterpretation at equal width and all
// widenings are out of scope (they are value-preserving for the
// magnitudes this code handles, and flagging them would bury the real
// hazards in noise).
func narrows(dst, src kindInfo) (bool, string) {
	if dst.float {
		return false, ""
	}
	if src.float {
		return true, "float-to-integer"
	}
	if dst.bits < src.bits {
		return true, "narrowing"
	}
	return false, ""
}

// representable reports whether constant v fits dst exactly.
func representable(v constant.Value, dst kindInfo) bool {
	iv := constant.ToInt(v)
	if iv.Kind() != constant.Int {
		return false
	}
	if dst.signed {
		lo := constant.MakeInt64(-1 << (dst.bits - 1))
		hi := constant.MakeInt64(1<<(dst.bits-1) - 1)
		return constant.Compare(iv, token.GEQ, lo) && constant.Compare(iv, token.LEQ, hi)
	}
	lo := constant.MakeInt64(0)
	hi := constant.MakeUint64(^uint64(0))
	if dst.bits < 64 {
		hi = constant.MakeUint64(uint64(1)<<uint(dst.bits) - 1)
	}
	return constant.Compare(iv, token.GEQ, lo) && constant.Compare(iv, token.LEQ, hi)
}

// boundedExpr reports whether the conversion operand is bounded by
// construction: a mask with a constant that fits dst, or a call to a
// clamp/saturate helper.
func boundedExpr(info *types.Info, e ast.Expr, dst kindInfo) bool {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return boundedExpr(info, v.X, dst)
	case *ast.BinaryExpr:
		if v.Op != token.AND {
			return false
		}
		for _, side := range []ast.Expr{v.X, v.Y} {
			if tv := info.Types[side]; tv.Value != nil && representable(tv.Value, dst) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return clampRE.MatchString(calleeName(v))
	}
	return false
}

// calleeName returns the last identifier of the call's function
// expression ("clamp8" in p.clamp8(x), "Clamp" in quant.Clamp(x)).
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
