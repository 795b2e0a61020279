package intinfer

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/qsim"
)

func trainedMLP(t testing.TB) (*models.ImageModel, *datasets.ImageDataset, *datasets.ImageDataset) {
	t.Helper()
	train := datasets.DigitsNoisy(600, 0.2, 71)
	test := datasets.DigitsNoisy(200, 0.2, 72)
	m := models.NewMLP(64, 73)
	cfg := models.DefaultTrain
	cfg.Epochs = 3
	models.Train(m, train, cfg)
	return m, train, test
}

func TestBuildRejectsBadOptions(t *testing.T) {
	m, train, _ := trainedMLP(t)
	if _, err := Build(m, Options{}); err == nil {
		t.Error("missing calibration accepted")
	}
	if _, err := Build(m, Options{Calibration: train.Images[:4], GroupBudget: 8}); err == nil {
		t.Error("group budget without group size accepted")
	}
}

func TestBuildRejectsSEModels(t *testing.T) {
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	m := models.NewEffNetStyle(g, 74)
	qsim.FoldBatchNorm(m)
	ds := datasets.ImageClasses(4, 4, 3, 8, 8, 75)
	if _, err := Build(m, Options{Calibration: ds.Images}); err == nil {
		t.Error("squeeze-excite model accepted")
	}
}

func TestIntegerResNetAfterFolding(t *testing.T) {
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	all := datasets.ImageClassesHard(400, g.Classes, g.InC, g.InH, g.InW, 0.4, 0.4, 81)
	train, test := all.Split(280)
	m := models.NewResNetStyle(g, 82)
	cfg := models.DefaultTrain
	cfg.Epochs = 3
	models.Train(m, train, cfg)
	floatAcc := models.Evaluate(m, test, 32)

	qsim.FoldBatchNorm(m)
	plan, err := Build(m, Options{Calibration: train.Images[:64]})
	if err != nil {
		t.Fatal(err)
	}
	intAcc, err := plan.Accuracy(test.Images, test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if intAcc < floatAcc-0.08 {
		t.Errorf("integer residual accuracy %.3f fell more than 8pp below float %.3f",
			intAcc, floatAcc)
	}
}

func TestIntegerMobileNetAfterFolding(t *testing.T) {
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	all := datasets.ImageClassesHard(400, g.Classes, g.InC, g.InH, g.InW, 0.4, 0.4, 83)
	train, test := all.Split(280)
	m := models.NewMobileNetStyle(g, 84)
	cfg := models.DefaultTrain
	cfg.Epochs = 3
	models.Train(m, train, cfg)
	floatAcc := models.Evaluate(m, test, 32)

	qsim.FoldBatchNorm(m)
	plan, err := Build(m, Options{Calibration: train.Images[:64],
		GroupSize: 8, GroupBudget: 12})
	if err != nil {
		t.Fatal(err)
	}
	intAcc, err := plan.Accuracy(test.Images, test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if intAcc < floatAcc-0.1 {
		t.Errorf("integer depthwise accuracy %.3f fell more than 10pp below float %.3f",
			intAcc, floatAcc)
	}
}

func TestBuildRejectsUnfoldedBatchNorm(t *testing.T) {
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	m := models.NewVGGStyle(g, 76)
	ds := datasets.ImageClasses(4, 4, 3, 8, 8, 77)
	if _, err := Build(m, Options{Calibration: ds.Images}); err == nil {
		t.Error("unfolded batch norm accepted")
	}
}

func TestIntegerMLPMatchesFloat(t *testing.T) {
	m, train, test := trainedMLP(t)
	floatAcc := models.Evaluate(m, test, 32)
	plan, err := Build(m, Options{Calibration: train.Images[:64]})
	if err != nil {
		t.Fatal(err)
	}
	intAcc, err := plan.Accuracy(test.Images, test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if intAcc < floatAcc-0.04 {
		t.Errorf("integer accuracy %.3f fell more than 4pp below float %.3f", intAcc, floatAcc)
	}
}

func TestIntegerMLPWithTR(t *testing.T) {
	m, train, test := trainedMLP(t)
	floatAcc := models.Evaluate(m, test, 32)
	plan, err := Build(m, Options{Calibration: train.Images[:64],
		GroupSize: 8, GroupBudget: 12})
	if err != nil {
		t.Fatal(err)
	}
	trAcc, err := plan.Accuracy(test.Images, test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if trAcc < floatAcc-0.06 {
		t.Errorf("integer TR accuracy %.3f fell more than 6pp below float %.3f", trAcc, floatAcc)
	}
}

func TestIntegerVGGAfterFolding(t *testing.T) {
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	all := datasets.ImageClassesHard(400, g.Classes, g.InC, g.InH, g.InW, 0.4, 0.4, 78)
	train, test := all.Split(280)
	m := models.NewVGGStyle(g, 79)
	cfg := models.DefaultTrain
	cfg.Epochs = 3
	models.Train(m, train, cfg)
	floatAcc := models.Evaluate(m, test, 32)

	qsim.FoldBatchNorm(m)
	plan, err := Build(m, Options{Calibration: train.Images[:64]})
	if err != nil {
		t.Fatal(err)
	}
	intAcc, err := plan.Accuracy(test.Images, test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if intAcc < floatAcc-0.06 {
		t.Errorf("integer conv accuracy %.3f fell more than 6pp below float %.3f",
			intAcc, floatAcc)
	}

	// With TR on the weights, accuracy stays close.
	planTR, err := Build(m, Options{Calibration: train.Images[:64],
		GroupSize: 8, GroupBudget: 12})
	if err != nil {
		t.Fatal(err)
	}
	trAcc, err := planTR.Accuracy(test.Images, test.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if trAcc < intAcc-0.06 {
		t.Errorf("TR integer accuracy %.3f fell more than 6pp below QT integer %.3f",
			trAcc, intAcc)
	}
}

func TestInferRejectsWrongImageSize(t *testing.T) {
	m, train, _ := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:8]})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.Infer(make([]float32, 7)); err == nil {
		t.Error("wrong image size accepted")
	}
}

func TestLogitsScaleConsistency(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:64]})
	if err != nil {
		t.Fatal(err)
	}
	logits, cls, err := plan.Infer(test.Images[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 10 {
		t.Fatalf("logits length %d", len(logits))
	}
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	if best != cls {
		t.Error("returned class disagrees with logits argmax")
	}
	// Float logits from the unmodified model rank the same top class for
	// most inputs; check this one agrees with the float argmax on a
	// majority over the test head.
	agree := 0
	const n = 40
	floatLogits := m.Forward(test.Images[:n], false)
	for i := 0; i < n; i++ {
		fb := 0
		for c := 1; c < 10; c++ {
			if floatLogits.Data[i*10+c] > floatLogits.Data[i*10+fb] {
				fb = c
			}
		}
		_, ib, err := plan.Infer(test.Images[i])
		if err != nil {
			t.Fatal(err)
		}
		if fb == ib {
			agree++
		}
	}
	if agree < n*8/10 {
		t.Errorf("integer and float argmax agree on only %d/%d", agree, n)
	}
}

func TestInferBatchParallelMatchesSerial(t *testing.T) {
	m, train, test := trainedMLP(t)
	plan, err := Build(m, Options{Calibration: train.Images[:32]})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plan.InferBatch(test.Images[:60])
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8, 0} {
		par, err := plan.InferBatchParallel(test.Images[:60], workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: prediction %d differs", workers, i)
			}
		}
	}
	// Errors propagate from workers.
	bad := [][]float32{make([]float32, 3)}
	if _, err := plan.InferBatchParallel(bad, 2); err == nil {
		t.Error("bad image accepted in parallel path")
	}
}
