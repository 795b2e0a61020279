// Package demoplan builds the small trained-and-compiled inference
// plans the binaries share: trbench times them, trserve serves them,
// and the serve smoke test classifies through them. Centralizing the
// recipes keeps the benchmark and serving numbers attributable to the
// same models (geometry, seeds, training budget) across tools.
//
// The recipes are split into two halves so the model artifact pipeline
// can interpose: the *Model functions train and return a raw
// models.ImageModel (which trserve can persist as a .trq artifact), and
// PlanFromModel / FamilyFromModel compile any such model — freshly
// trained or loaded back from an artifact — into the identical plan,
// reconstructing the calibration batch from the model's geometry.
package demoplan

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/intinfer"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/qsim"
)

// Quant is the term-revealing configuration every demo plan is built
// with — the paper's group size 8, budget 12 operating point, matching
// results/BENCH_intinfer.json.
const (
	QuantGroupSize   = 8
	QuantGroupBudget = 12
)

// MLPHidden is the demo MLP's hidden width (what models.Save records).
const MLPHidden = 64

// DefaultBudgets is the demo degradation ladder: the paper operating
// point on top, two lower-accuracy/lower-cost rungs beneath it for the
// serving layer to step down through under load.
var DefaultBudgets = []int{4, 8, QuantGroupBudget}

// MLPModel trains the digits MLP and returns it (raw, compile with
// PlanFromModel or FamilyFromModel) plus its held-out test set.
func MLPModel() (*models.ImageModel, *datasets.ImageDataset) {
	train := datasets.DigitsNoisy(400, 0.2, 91)
	test := datasets.DigitsNoisy(64, 0.2, 92)
	m := models.NewMLP(MLPHidden, 93)
	cfg := models.DefaultTrain
	cfg.Epochs = 2
	models.Train(m, train, cfg)
	return m, test
}

// CNNModel trains the small ResNet-style CNN and returns it raw —
// batch norm still unfolded, so the model serializes with its running
// statistics intact; compilation folds it.
func CNNModel() (*models.ImageModel, *datasets.ImageDataset) {
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	train, test := cnnData(g)
	m := models.NewResNetStyle(g, 97)
	cfg := models.DefaultTrain
	cfg.Epochs = 1
	models.Train(m, train, cfg)
	return m, test
}

// cnnData is the CNN recipe's dataset split, parameterized only by
// geometry so Calibration can rebuild it from a loaded model.
func cnnData(g models.CNNGeom) (train, test *datasets.ImageDataset) {
	all := datasets.ImageClassesHard(120, g.Classes, g.InC, g.InH, g.InW, 0.4, 0.4, 96)
	return all.Split(88)
}

// ModelByName trains the named demo model ("mlp" or "cnn"), returning
// the raw model, the MLP hidden width to record when serializing (0 for
// CNNs), and the held-out test set.
func ModelByName(name string) (*models.ImageModel, int, *datasets.ImageDataset, error) {
	switch name {
	case "mlp":
		m, test := MLPModel()
		return m, MLPHidden, test, nil
	case "cnn":
		m, test := CNNModel()
		return m, 0, test, nil
	}
	return nil, 0, nil, fmt.Errorf("demoplan: unknown model %q (want mlp or cnn)", name)
}

// Calibration reconstructs the demo calibration batch for a model from
// its input geometry: the digits recipe for the MLP shape, the
// hard-images recipe otherwise. A model loaded back from an artifact
// therefore compiles with exactly the calibration data its in-process
// twin trained against.
func Calibration(m *models.ImageModel) [][]float32 {
	if m.InC == 1 && m.InH == 12 && m.InW == 12 && m.Classes == 10 {
		return datasets.DigitsNoisy(400, 0.2, 91).Images[:32]
	}
	g := models.CNNGeom{InC: m.InC, InH: m.InH, InW: m.InW, Classes: m.Classes}
	train, _ := cnnData(g)
	return train.Images[:32]
}

// TestImages rebuilds the held-out test images for a model from its
// input geometry — what Calibration does for the calibration batch — so
// a server booted from a .trq artifact drives its smoke and load phases
// with the same inputs its freshly-trained twin would.
func TestImages(m *models.ImageModel) [][]float32 {
	if m.InC == 1 && m.InH == 12 && m.InW == 12 && m.Classes == 10 {
		return datasets.DigitsNoisy(64, 0.2, 92).Images
	}
	g := models.CNNGeom{InC: m.InC, InH: m.InH, InW: m.InW, Classes: m.Classes}
	_, test := cnnData(g)
	return test.Images
}

// PlanFromModel compiles a demo model (freshly trained or loaded from
// an artifact) at the paper operating point. Batch norm is folded in
// place first — a no-op on models without it.
func PlanFromModel(m *models.ImageModel, reg *obs.Registry) (*intinfer.Plan, error) {
	qsim.FoldBatchNorm(m)
	return intinfer.Build(m, intinfer.Options{
		Calibration: Calibration(m), GroupSize: QuantGroupSize,
		GroupBudget: QuantGroupBudget, Obs: reg})
}

// FamilyFromModel is PlanFromModel across a budget ladder (nil =
// DefaultBudgets).
func FamilyFromModel(m *models.ImageModel, reg *obs.Registry, budgets []int) (*intinfer.Family, error) {
	if budgets == nil {
		budgets = DefaultBudgets
	}
	qsim.FoldBatchNorm(m)
	return intinfer.BuildFamily(m, intinfer.Options{
		Calibration: Calibration(m), GroupSize: QuantGroupSize,
		Budgets: budgets, Obs: reg})
}

// MLP trains the digits MLP and compiles it, returning the plan and a
// held-out test set. This is the model BenchmarkIntegerInferenceMLP
// measures.
func MLP(reg *obs.Registry) (*intinfer.Plan, [][]float32, error) {
	m, test := MLPModel()
	plan, err := PlanFromModel(m, reg)
	if err != nil {
		return nil, nil, err
	}
	return plan, test.Images, nil
}

// CNN trains the small ResNet-style CNN and compiles it, returning the
// plan and a held-out test set. This is the model
// BenchmarkIntegerInferenceCNN measures.
func CNN(reg *obs.Registry) (*intinfer.Plan, [][]float32, error) {
	m, test := CNNModel()
	plan, err := PlanFromModel(m, reg)
	if err != nil {
		return nil, nil, err
	}
	return plan, test.Images, nil
}

// MLPFamily trains the same digits MLP as MLP and compiles it at every
// budget in the ladder (nil = DefaultBudgets), returning the labelled
// held-out test set so callers can put accuracy numbers on each rung.
func MLPFamily(reg *obs.Registry, budgets []int) (*intinfer.Family, *datasets.ImageDataset, error) {
	m, test := MLPModel()
	fam, err := FamilyFromModel(m, reg, budgets)
	if err != nil {
		return nil, nil, err
	}
	return fam, test, nil
}

// CNNFamily is MLPFamily for the ResNet-style CNN demo model.
func CNNFamily(reg *obs.Registry, budgets []int) (*intinfer.Family, *datasets.ImageDataset, error) {
	m, test := CNNModel()
	fam, err := FamilyFromModel(m, reg, budgets)
	if err != nil {
		return nil, nil, err
	}
	return fam, test, nil
}

// FamilyByName builds the named demo plan family ("mlp" or "cnn").
func FamilyByName(name string, reg *obs.Registry, budgets []int) (*intinfer.Family, *datasets.ImageDataset, error) {
	switch name {
	case "mlp":
		return MLPFamily(reg, budgets)
	case "cnn":
		return CNNFamily(reg, budgets)
	}
	return nil, nil, fmt.Errorf("demoplan: unknown model %q (want mlp or cnn)", name)
}
