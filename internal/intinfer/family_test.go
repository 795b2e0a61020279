package intinfer

import (
	"context"
	"testing"
)

func TestBuildFamilyRejectsBadOptions(t *testing.T) {
	m, train, _ := trainedMLP(t)
	if _, err := BuildFamily(m, Options{Budgets: []int{4, 12}}); err == nil {
		t.Error("missing calibration accepted")
	}
	if _, err := BuildFamily(m, Options{Calibration: train.Images[:4],
		Budgets: []int{4, 12}}); err == nil {
		t.Error("budgets without group size accepted")
	}
	if _, err := BuildFamily(m, Options{Calibration: train.Images[:4],
		GroupSize: 8, Budgets: []int{4, -1}}); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestBuildFamilyEmptyBudgetsFallsBack(t *testing.T) {
	m, train, _ := trainedMLP(t)
	f, err := BuildFamily(m, Options{Calibration: train.Images[:16],
		GroupSize: 8, GroupBudget: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Budgets(); len(got) != 1 || got[0] != 12 {
		t.Fatalf("budgets = %v, want [12]", got)
	}
	if p, ok := f.Plan(12); !ok || p.GroupBudget() != 12 {
		t.Fatalf("Plan(12) = %v, %v", p, ok)
	}
}

// TestFamilyBitIdenticalToSingleBudget is the tentpole acceptance
// criterion: every rung of a multi-budget family must produce exactly
// the logits and classes the equivalent single-budget Build produces.
func TestFamilyBitIdenticalToSingleBudget(t *testing.T) {
	m, train, test := trainedMLP(t)
	opts := Options{Calibration: train.Images[:64], GroupSize: 8}
	fo := opts
	fo.Budgets = []int{4, 12}
	f, err := BuildFamily(m, fo)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Budgets() {
		so := opts
		so.GroupBudget = b
		single, err := Build(m, so)
		if err != nil {
			t.Fatal(err)
		}
		rung, ok := f.Plan(b)
		if !ok {
			t.Fatalf("family missing budget %d", b)
		}
		for i, img := range test.Images[:50] {
			wantLog, wantCls, err := single.Infer(img)
			if err != nil {
				t.Fatal(err)
			}
			gotLog, gotCls, err := rung.Infer(img)
			if err != nil {
				t.Fatal(err)
			}
			if gotCls != wantCls {
				t.Fatalf("budget %d image %d: family class %d != single %d",
					b, i, gotCls, wantCls)
			}
			for j := range wantLog {
				if gotLog[j] != wantLog[j] {
					t.Fatalf("budget %d image %d logit %d: family %v != single %v",
						b, i, j, gotLog[j], wantLog[j])
				}
			}
		}
	}
}

// Budgets wide enough to never truncate a group's term list reveal
// identical codes, so the rungs must alias one weight artifact rather
// than hold copies; and every rung must draw from the same scratch pool.
func TestFamilySharesStorage(t *testing.T) {
	m, train, _ := trainedMLP(t)
	f, err := BuildFamily(m, Options{Calibration: train.Images[:16],
		GroupSize: 8, Budgets: []int{64, 96}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := f.plans[0], f.plans[1]
	if lo.arena != hi.arena {
		t.Error("rungs do not share a scratch pool")
	}
	shared := 0
	for i := range lo.steps {
		ls, hs := &lo.steps[i], &hi.steps[i]
		if len(ls.weights) == 0 {
			continue
		}
		if &ls.weights[0] == &hs.weights[0] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no weight slices aliased between saturating budgets")
	}
	if lo.bufCount != hi.bufCount || lo.maxAct != hi.maxAct || lo.maxLin != hi.maxLin {
		t.Error("arena geometry not unified across rungs")
	}
}

// convSteps lists a chain's conv steps in execution order, residual
// branches included.
func convSteps(steps []step) []*step {
	var out []*step
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case kindConv:
			out = append(out, st)
		case kindResidual:
			out = append(out, convSteps(st.body)...)
			out = append(out, convSteps(st.proj)...)
		}
	}
	return out
}

func TestFamilyClampAndStepDown(t *testing.T) {
	m, train, _ := trainedMLP(t)
	f, err := BuildFamily(m, Options{Calibration: train.Images[:16],
		GroupSize: 8, Budgets: []int{12, 4, 8, 8}}) // unsorted + dup on purpose
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Budgets(); len(got) != 3 || got[0] != 4 || got[1] != 8 || got[2] != 12 {
		t.Fatalf("budgets = %v, want [4 8 12]", got)
	}
	clamps := map[int]int{-3: 4, 0: 4, 4: 4, 5: 4, 6: 8, 8: 8, 11: 12, 12: 12, 99: 12}
	for in, want := range clamps {
		if got := f.Clamp(in); got != want {
			t.Errorf("Clamp(%d) = %d, want %d", in, got, want)
		}
	}
	if lower, ok := f.StepDown(12); !ok || lower != 8 {
		t.Errorf("StepDown(12) = %d, %v, want 8, true", lower, ok)
	}
	if lower, ok := f.StepDown(8); !ok || lower != 4 {
		t.Errorf("StepDown(8) = %d, %v, want 4, true", lower, ok)
	}
	if _, ok := f.StepDown(4); ok {
		t.Error("StepDown(4) reported a rung below the floor")
	}
	if f.MinBudget() != 4 || f.MaxBudget() != 12 {
		t.Errorf("Min/Max = %d/%d, want 4/12", f.MinBudget(), f.MaxBudget())
	}
}

func TestFamilyDispatch(t *testing.T) {
	m, train, test := trainedMLP(t)
	f, err := BuildFamily(m, Options{Calibration: train.Images[:16],
		GroupSize: 8, Budgets: []int{4, 12}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, ok := f.Plan(7); ok {
		t.Error("off-ladder budget 7 has a plan")
	}
	p, ok := f.Plan(12)
	if !ok {
		t.Fatal("ladder budget 12 has no plan")
	}
	cls, err := p.ClassifyContext(ctx, test.Images[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.plans[1].Classify(test.Images[0])
	if err != nil {
		t.Fatal(err)
	}
	if cls != want {
		t.Errorf("dispatch class %d != direct %d", cls, want)
	}
	preds, err := f.InferBatchContext(ctx, test.Images[:8], 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := f.plans[0].InferBatch(test.Images[:8])
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if preds[i] != direct[i] {
			t.Errorf("batch dispatch pred[%d] = %d, direct %d", i, preds[i], direct[i])
		}
	}
	if _, err := f.InferBatchContext(ctx, test.Images[:2], 1, 5); err == nil {
		t.Error("off-ladder budget accepted by InferBatchContext")
	}
}
