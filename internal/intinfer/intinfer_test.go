package intinfer

import (
	"context"
	"fmt"
	"slices"
	"strings"
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

// TestInferBatchSpansMatchClassify pins the batch driver on both kinds
// of plan: the batched MLP, whose spans run chunks, and its forceDirect
// twin, off the batched lane, whose spans run one image at a time. At
// every batch size from 0 to 9 and at 60, and at every worker count,
// each batch entry point predicts what Classify predicts, and a
// wrong-size image at index k fails the batch with an error naming
// image k.
func TestInferBatchSpansMatchClassify(t *testing.T) {
	m, train, test := trainedMLP(t)
	batched, direct := buildPair(t, m, Options{Calibration: train.Images[:32]})
	if batched.chunk == 0 || direct.chunk != 0 {
		t.Fatalf("chunk widths %d and %d, want a batched plan and a per-image one",
			batched.chunk, direct.chunk)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, pl := range []struct {
		name string
		p    *Plan
	}{{"batched", batched}, {"direct", direct}} {
		want := make([]int, 60)
		for i := range want {
			var err error
			if want[i], err = pl.p.Classify(test.Images[i]); err != nil {
				t.Fatal(err)
			}
		}
		// entries runs a batch through every entry point at a worker
		// count; InferBatch has only the one worker.
		entries := func(images [][]float32, workers int) map[string]func() ([]int, error) {
			e := map[string]func() ([]int, error){
				"background": func() ([]int, error) {
					return pl.p.InferBatchContext(context.Background(), images, workers)
				},
				"cancellable": func() ([]int, error) { return pl.p.InferBatchContext(ctx, images, workers) },
			}
			if workers == 1 {
				e["InferBatch"] = func() ([]int, error) { return pl.p.InferBatch(images) }
			}
			return e
		}
		for _, b := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 60} {
			images := test.Images[:b]
			for _, workers := range []int{1, 2, 3, 0} {
				for entry, run := range entries(images, workers) {
					got, err := run()
					if err != nil {
						t.Fatalf("%s b=%d workers=%d %s: %v", pl.name, b, workers, entry, err)
					}
					if len(got) != b {
						t.Fatalf("%s b=%d workers=%d %s: %d predictions", pl.name, b, workers, entry, len(got))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s b=%d workers=%d %s image %d: %d, Classify %d",
								pl.name, b, workers, entry, i, got[i], want[i])
						}
					}
				}
				for _, k := range slices.Compact([]int{0, b / 2, b - 1}) {
					if k >= b {
						break // an empty batch has no image to spoil
					}
					bad := slices.Clone(images)
					bad[k] = make([]float32, 3)
					name := fmt.Sprintf("image %d:", k)
					for entry, run := range entries(bad, workers) {
						if _, err := run(); err == nil || !strings.Contains(err.Error(), name) {
							t.Fatalf("%s b=%d workers=%d %s: bad image %d returned %v",
								pl.name, b, workers, entry, k, err)
						}
					}
				}
			}
		}
	}
}
