// Package ctxguard enforces the runtime's cancellation contract: a
// function that is handed a cancellation carrier — a context.Context or
// a *sync/atomic.Bool stop flag — must observe it on every iteration of
// every loop it runs. The serving path (internal/serve) promises
// bounded drain times and the batch engine (internal/intinfer) promises
// prompt abort; both promises die silently in a loop that spins without
// looking at its carrier.
//
// The check is CFG-based, not syntactic: a loop passes if every cycle
// through its natural loop crosses an observation — a header condition
// like stop.Load(), an if ctx.Err() != nil branch (conditions live on
// CFG edges), a select on ctx.Done(), a call that forwards the carrier,
// or a call to a same-package function that itself observes (computed
// as a fixpoint; inside a function literal or a go statement only a
// carrier the spawned code reaches counts). Loops containing no calls
// at all are exempt: pure compute between observations is the normal
// shape of a kernel inner loop, and the carrier is checked by whoever
// drives it.
package ctxguard

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the ctxguard pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxguard",
	Doc:  "every loop in a function taking a context.Context or *atomic.Bool stop flag must observe cancellation each iteration",
	Run:  run,
}

// scope is where the cancellation contract is load-bearing: the serving
// path and the batch inference engine, plus this analyzer's fixtures.
var scope = regexp.MustCompile(`internal/(intinfer|serve)$|testdata/src/ctxguard/`)

func run(pass *analysis.Pass) error {
	if !scope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	if pass.Flow == nil {
		return nil
	}
	o := newObserver(pass.TypesInfo, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, o, fd, fd.Type)
			// Function literals with their own carrier params are
			// contracts too (worker bodies handed a ctx directly).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, o, lit, lit.Type)
				}
				return true
			})
		}
	}
	return nil
}

// checkFunc verifies every loop of one function against the carriers
// named in its own parameter list.
func checkFunc(pass *analysis.Pass, o *observer, fn ast.Node, ft *ast.FuncType) {
	carriers := carrierParams(pass.TypesInfo, ft)
	if len(carriers) == 0 {
		return
	}
	g := pass.Flow.CFG(fn)
	if g == nil {
		return
	}
	for _, l := range g.Loops {
		nat := g.NaturalLoop(l)
		if o.pureCompute(nat) {
			continue
		}
		if o.blockObserves(l.Header) {
			continue
		}
		if o.blindCycle(l, nat) {
			pass.Report(analysis.Diagnostic{
				Pos:      l.Stmt.Pos(),
				Category: "unobserved-cancel",
				Message: "loop never observes cancellation of " + strings.Join(carriers, ", ") +
					": check ctx.Err()/ctx.Done() or the stop flag's Load() each iteration, or forward the carrier into the calls",
			})
		}
	}
}

// carrierParams returns the names of ft's parameters whose type is a
// cancellation carrier.
func carrierParams(info *types.Info, ft *ast.FuncType) []string {
	var names []string
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if isCarrier(obj.Type()) {
				names = append(names, name.Name)
			}
		}
	}
	return names
}

func isCarrier(t types.Type) bool {
	return isContext(t) || isAtomicBool(t)
}

func isContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isAtomicBool matches sync/atomic.Bool and *sync/atomic.Bool — the
// stop-flag idiom the kernels and server use for cooperative abort.
func isAtomicBool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Bool"
}

// observer decides whether a syntax subtree observes cancellation. The
// observing set of same-package functions is computed once per package
// as a fixpoint: f observes if its body contains a primitive
// observation or a call to an already-observing function.
type observer struct {
	info      *types.Info
	observing map[types.Object]bool
}

func newObserver(info *types.Info, files []*ast.File) *observer {
	o := &observer{info: info, observing: make(map[types.Object]bool)}
	var decls []*ast.FuncDecl
	for _, file := range files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			obj := info.Defs[fd.Name]
			if obj == nil || o.observing[obj] {
				continue
			}
			if o.observes(fd.Body) {
				o.observing[obj] = true
				changed = true
			}
		}
	}
	return o
}

// observes reports whether any call inside n is an observation. The
// scan deliberately descends into function literals: a loop that spawns
// workers which each watch ctx.Done() has made the handoff, and the
// forwarding call itself is the per-iteration observation.
func (o *observer) observes(n ast.Node) bool {
	if rh, ok := n.(dataflow.RangeHeader); ok {
		// Only the range operand executes in the header block; the body
		// has its own blocks and must not be attributed here.
		if rh.X == nil {
			return false
		}
		n = rh.X
	}
	return o.scan(n, false)
}

// scan is observes over one subtree. Inside a function literal or a go
// statement (inLit) only an observation of a carrier the spawned code
// reaches counts — a primitive on a captured carrier or a call
// forwarding one — and a call to an observing same-package function
// does not: go func() { runSpan(nil) }() and go runSpan(nil) call an
// observer but hand it nothing that can stop it.
func (o *observer) scan(n ast.Node, inLit bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if !inLit {
				found = o.scan(n.Body, true)
				return false
			}
		case *ast.GoStmt:
			if !inLit {
				found = o.scan(n.Call, true)
				return false
			}
		case *ast.CallExpr:
			if o.callObserves(n, inLit) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callObserves reports whether one call is an observation: a primitive
// (Load on an atomic.Bool, Err/Done on a context), a call forwarding a
// carrier argument, or — outside a function literal or go statement — a
// call to an observing same-package function.
func (o *observer) callObserves(call *ast.CallExpr, inLit bool) bool {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if recv := o.info.Types[sel.X]; recv.Type != nil {
			switch sel.Sel.Name {
			case "Load":
				if isAtomicBool(recv.Type) {
					return true
				}
			case "Err", "Done":
				if isContext(recv.Type) {
					return true
				}
			}
		}
	}
	for _, arg := range call.Args {
		if tv := o.info.Types[arg]; tv.Type != nil && isCarrier(tv.Type) {
			return true
		}
	}
	if inLit {
		return false
	}
	obj := o.callee(call)
	return obj != nil && o.observing[obj]
}

// callee resolves the called object, if it is statically known.
func (o *observer) callee(call *ast.CallExpr) types.Object {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		return o.info.Uses[f]
	case *ast.SelectorExpr:
		return o.info.Uses[f.Sel]
	}
	return nil
}

// blockObserves reports whether the block's own statements or the
// branch conditions it evaluates (conditions live on outgoing edges)
// observe cancellation.
func (o *observer) blockObserves(b *dataflow.Block) bool {
	for _, n := range b.Nodes {
		if o.observes(n) {
			return true
		}
	}
	for _, e := range b.Succs {
		if e.Cond != nil && o.observes(e.Cond) {
			return true
		}
	}
	return false
}

// blindCycle reports whether some path from the loop header returns to
// it without crossing an observation: a full iteration the carrier
// never interrupts. Edges whose condition observes are closed (the
// condition is evaluated whichever way the branch goes), and observing
// blocks are not traversed through.
func (o *observer) blindCycle(l dataflow.Loop, nat map[*dataflow.Block]bool) bool {
	seen := make(map[*dataflow.Block]bool)
	var dfs func(b *dataflow.Block) bool
	dfs = func(b *dataflow.Block) bool {
		for _, e := range b.Succs {
			if !nat[e.To] {
				continue
			}
			if e.Cond != nil && o.observes(e.Cond) {
				continue
			}
			if e.To == l.Header {
				return true
			}
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			if o.nodesObserve(e.To) {
				continue
			}
			if dfs(e.To) {
				return true
			}
		}
		return false
	}
	return dfs(l.Header)
}

// nodesObserve is blockObserves restricted to the block's statements;
// outgoing conditions are judged edge-by-edge during the cycle search.
func (o *observer) nodesObserve(b *dataflow.Block) bool {
	for _, n := range b.Nodes {
		if o.observes(n) {
			return true
		}
	}
	return false
}

// pureCompute reports whether the natural loop contains no calls beyond
// builtins and conversions — a raw arithmetic loop with nothing to
// forward a carrier into. Such loops are the driven, not the drivers.
func (o *observer) pureCompute(nat map[*dataflow.Block]bool) bool {
	for b := range nat {
		for _, n := range b.Nodes {
			if o.hasRealCall(n) {
				return false
			}
		}
		for _, e := range b.Succs {
			if e.Cond != nil && o.hasRealCall(e.Cond) {
				return false
			}
		}
	}
	return true
}

func (o *observer) hasRealCall(n ast.Node) bool {
	if rh, ok := n.(dataflow.RangeHeader); ok {
		if rh.X == nil {
			return false
		}
		n = rh.X
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		tv := o.info.Types[call.Fun]
		if tv.IsType() || tv.IsBuiltin() {
			return true
		}
		found = true
		return false
	})
	return found
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
