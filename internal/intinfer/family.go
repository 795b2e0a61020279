package intinfer

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/models"
)

// Family is a ladder of compiled plans sharing one weight artifact: the
// same model calibrated once and revealed at several TR group budgets.
// Rungs whose revealed codes coincide (a high budget that never
// truncates a group, say) alias the same weight, bias and packed-panel
// storage, and every rung draws scratch from a single pool whose
// geometry is the family max — so adding budgets costs only the requant
// tables that actually differ (and each conv's k gather tap offsets),
// not another full copy of the network.
//
// Each rung is bit-identical to the plan Build would produce for that
// budget alone: BuildFamily runs the same calibration pass once and
// compiles every rung through the same code path, and sharing only
// aliases storage proven equal.
//
// A Family is immutable after BuildFamily and safe for concurrent use.
type Family struct {
	budgets []int   // ascending, deduplicated
	plans   []*Plan // parallel to budgets
}

// BuildFamily compiles the model at every group budget in opts.Budgets
// (deduplicated, sorted ascending; an empty list falls back to the
// single opts.GroupBudget). The model itself is left unmodified.
func BuildFamily(m *models.ImageModel, opts Options) (*Family, error) {
	if err := normalizeOptions(&opts); err != nil {
		return nil, err
	}
	budgets := slices.Clone(opts.Budgets)
	if len(budgets) == 0 {
		budgets = []int{opts.GroupBudget}
	}
	slices.Sort(budgets)
	budgets = slices.Compact(budgets)
	for _, b := range budgets {
		if b < 0 {
			return nil, fmt.Errorf("intinfer: negative group budget %d", b)
		}
		if b > 0 && opts.GroupSize < 1 {
			return nil, fmt.Errorf("intinfer: group budget %d needs a group size", b)
		}
	}

	// One calibration pass: the activation scales depend only on the
	// float model, so every rung shares them — a rung differs from its
	// neighbours solely in which weight terms survive revealing.
	scales, outScale, err := calibrate(m, opts.Calibration)
	if err != nil {
		return nil, err
	}
	f := &Family{budgets: budgets, plans: make([]*Plan, len(budgets))}
	for i, b := range budgets {
		o := opts
		o.GroupBudget = b
		p, err := buildCalibrated(m, o, scales, outScale)
		if err != nil {
			return nil, fmt.Errorf("intinfer: budget %d: %w", b, err)
		}
		f.plans[i] = p
	}
	f.share()
	return f, nil
}

// share dedupes identical weight storage between neighbouring rungs and
// unifies the scratch arena. Revealing is monotone in the budget —
// raising k only adds terms — so when two adjacent rungs produce equal
// codes for a layer, every rung between any wider equal pair does too;
// comparing neighbours therefore finds all duplicates.
func (f *Family) share() {
	for i := 1; i < len(f.plans); i++ {
		shareSteps(f.plans[i].steps, f.plans[i-1].steps)
	}

	// Unify arena geometry to the family max so any rung's inference can
	// run out of any pooled scratch, then point every rung at one pool.
	// The geometry fields are only read when the pool allocates a fresh
	// scratch; kernels slice buffers to their exact working size, so a
	// larger-than-needed scratch never changes results.
	top := f.plans[len(f.plans)-1]
	for _, p := range f.plans[:len(f.plans)-1] {
		top.maxAct = max(top.maxAct, p.maxAct)
		top.staged = top.staged || p.staged
		top.maxPackB = max(top.maxPackB, p.maxPackB)
		top.maxLin = max(top.maxLin, p.maxLin)
		top.u8Buf = max(top.u8Buf, p.u8Buf)
		top.bufCount = max(top.bufCount, p.bufCount)
	}
	pool := &sync.Pool{New: func() any { return top.newScratch() }}
	for _, p := range f.plans {
		p.maxAct = top.maxAct
		p.staged = top.staged
		p.maxPackB = top.maxPackB
		p.maxLin = top.maxLin
		p.u8Buf = top.u8Buf
		p.bufCount = top.bufCount
		p.arena = pool
	}
}

// shareSteps walks two structurally identical step chains and aliases
// dst's weight-derived storage to src's wherever the revealed codes are
// equal. The packed forms (pack8, pack8lin, wf64, bf64) are
// deterministic functions of the codes and geometry, so equal codes
// imply equal packs and the pointers can be shared without comparing
// panel bytes.
func shareSteps(dst, src []step) {
	for i := range dst {
		d, s := &dst[i], &src[i]
		if d.kind == kindResidual {
			shareSteps(d.body, s.body)
			if d.proj != nil && s.proj != nil {
				shareSteps(d.proj, s.proj)
			}
			continue
		}
		if d.kind != kindConv && d.kind != kindLinear {
			continue
		}
		if slices.Equal(d.weights, s.weights) {
			d.weights = s.weights
			d.wf64 = s.wf64
			d.pack8 = s.pack8
			d.pack8lin = s.pack8lin
		}
		if slices.Equal(d.bias, s.bias) {
			d.bias = s.bias
			d.bf64 = s.bf64
		}
	}
}

// Budgets returns the family's budget ladder, ascending.
func (f *Family) Budgets() []int { return slices.Clone(f.budgets) }

// MinBudget returns the lowest rung — the floor the degradation policy
// can step down to.
func (f *Family) MinBudget() int { return f.budgets[0] }

// MaxBudget returns the highest rung — the default quality point.
func (f *Family) MaxBudget() int { return f.budgets[len(f.budgets)-1] }

// Plan returns the compiled rung for an exact budget, or false when the
// family has no such rung (use Clamp first for client-supplied values).
func (f *Family) Plan(budget int) (*Plan, bool) {
	i, ok := slices.BinarySearch(f.budgets, budget)
	if !ok {
		return nil, false
	}
	return f.plans[i], true
}

// Clamp snaps an arbitrary requested budget onto the ladder: out-of-range
// values clamp to the end rungs, in-between values go to the nearest
// rung, ties toward the higher (more accurate) one.
func (f *Family) Clamp(budget int) int {
	if budget <= f.budgets[0] {
		return f.budgets[0]
	}
	if budget >= f.budgets[len(f.budgets)-1] {
		return f.budgets[len(f.budgets)-1]
	}
	i, ok := slices.BinarySearch(f.budgets, budget)
	if ok {
		return budget
	}
	lo, hi := f.budgets[i-1], f.budgets[i]
	if budget-lo < hi-budget {
		return lo
	}
	return hi
}

// StepDown returns the rung directly below the given one, for the
// serving layer's degrade-before-shed policy. ok is false at (or below)
// the bottom rung — there is nowhere left to degrade to.
func (f *Family) StepDown(budget int) (lower int, ok bool) {
	i, _ := slices.BinarySearch(f.budgets, budget)
	if i == 0 {
		return 0, false
	}
	return f.budgets[i-1], true
}

// InputDims returns the image geometry every rung expects.
func (f *Family) InputDims() (c, h, w int) { return f.plans[0].InputDims() }

// Classes returns the number of output classes every rung produces.
func (f *Family) Classes() int { return f.plans[0].Classes() }

// InferBatchContext classifies a batch at an exact ladder budget;
// workers selects batch-level parallelism as in Plan.InferBatchContext.
func (f *Family) InferBatchContext(ctx context.Context, images [][]float32, workers, budget int) ([]int, error) {
	p, ok := f.Plan(budget)
	if !ok {
		return nil, fmt.Errorf("intinfer: no plan for budget %d (ladder %v)", budget, f.budgets)
	}
	return p.InferBatchContext(ctx, images, workers)
}
