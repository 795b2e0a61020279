package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/datasets"
	"repro/internal/demoplan"
	"repro/internal/intinfer"
	"repro/internal/kernels/autotune"
	"repro/internal/models"
	"repro/internal/obs"
)

// poolSize is how many seeded images each workload draws; requests and
// batches cycle through the pool, and agreement is measured over it.
const poolSize = 4096

// workload describes one benchmark workload: the demo model it drives
// and the offset that gives it its own image pool for a seed.
type workload struct {
	Name  string
	Model string
	pool  int64
}

var workloads = []workload{
	{"http_mlp", "mlp", 0},
	{"closed_cnn", "cnn", 1},
	{"offline_mlp", "mlp", 2},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// images regenerates the workload's seeded pool. It is a pure function
// of the workload and seed, so the prep process and every worker see
// the same images without passing them around. Both pools come from
// the demo models' own input distributions: the digits recipe draws
// fresh samples for any seed, while the CNN's recipe (class separation
// 0.4, noise 0.4, dataset seed 96) fixes its class templates by seed,
// so the seed instead picks which cnnDraw-sized sample of that
// distribution the pool holds.
func (w workload) images(seed int64, m *models.ImageModel) [][]float32 {
	s := seed*int64(len(workloads)) + w.pool
	if w.Model == "mlp" {
		return datasets.DigitsNoisy(poolSize, 0.2, s).Images
	}
	all := datasets.ImageClassesHard(cnnDraw, m.Classes, m.InC, m.InH, m.InW, 0.4, 0.4, 96).Images
	rng := rand.New(rand.NewSource(s))
	out := make([][]float32, poolSize)
	for i, j := range rng.Perm(len(all))[:poolSize] {
		out[i] = all[j]
	}
	return out
}

// cnnDraw is how many CNN-distribution images the pool is picked from.
const cnnDraw = 4 * poolSize

// prepared is what the untimed prep process hands the timed phases.
type prepared struct {
	Artifact   string `json:"artifact"`
	SHA256     string `json:"sha256"`
	Bytes      int64  `json:"bytes"`
	InC        int    `json:"in_c"`
	InH        int    `json:"in_h"`
	InW        int    `json:"in_w"`
	Classes    int    `json:"classes"`
	Refs       refs   `json:"refs"`
	TilesTuned int64  `json:"tiles_tuned"`
	TileCache  any    `json:"tile_cache"`
	Budgets    []int  `json:"budgets"`
}

// model returns a geometry-only model for pool generation.
func (p *prepared) model() *models.ImageModel {
	return &models.ImageModel{InC: p.InC, InH: p.InH, InW: p.InW, Classes: p.Classes}
}

func loadPrepared(dir string) (*prepared, error) {
	data, err := os.ReadFile(filepath.Join(dir, "prep.json"))
	if err != nil {
		return nil, err
	}
	var p prepared
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("prep.json: %w", err)
	}
	return &p, nil
}

// runPrep is the untimed prep process: train the workload's demo model
// with its demoplan recipe and write it as a .trq artifact, fill the
// tile autotuner's cache by compiling the family once, and compute the
// answer key for the seeded pool.
func runPrep(w workload, seed int64, dir string) error {
	m, hidden, _, err := demoplan.ModelByName(w.Model)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, w.Model+".trq")
	if err := artifact.WriteModelFile(path, m, hidden, artifact.WriteOptions{
		GroupSize: demoplan.QuantGroupSize, GroupBudget: demoplan.QuantGroupBudget,
		Version: "perfbench"}); err != nil {
		return fmt.Errorf("write artifact: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)

	reg := obs.New()
	autotune.SetObs(reg)
	fam, _, _, err := loadFamily(path, nil, nil, -1)
	if err != nil {
		return err
	}
	float, _, err := artifact.LoadModelFile(path)
	if err != nil {
		return err
	}
	p := prepared{Artifact: path, SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(data)),
		InC: float.InC, InH: float.InH, InW: float.InW, Classes: float.Classes,
		Budgets:    fam.Budgets(),
		TilesTuned: reg.Counter("trq_kernels_autotune_total", "outcome", "measured").Value()}
	if tc, err := os.ReadFile(os.Getenv("TRQ_AUTOTUNE_CACHE")); err == nil {
		p.TileCache = json.RawMessage(tc)
	}
	imgs := w.images(seed, float)
	p.Refs = refs{Classes: map[int][]int{}, Float: floatClasses(float, imgs)}
	// One goroutine per rung: plans are safe for concurrent use, and
	// prep is untimed, so it may use every core.
	budgets := fam.Budgets()
	classes := make([][]int, len(budgets))
	errs := make([]error, len(budgets))
	var wg sync.WaitGroup
	for k, b := range budgets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, _ := fam.Plan(b)
			classes[k] = make([]int, len(imgs))
			for i, img := range imgs {
				c, err := plan.ClassifyContext(context.Background(), img)
				if err != nil {
					errs[k] = fmt.Errorf("reference class of image %d at budget %d: %w", i, b, err)
					return
				}
				classes[k][i] = c
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for k, b := range budgets {
		p.Refs.Classes[b] = classes[k]
	}
	out, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "prep.json"), out, 0o644)
}

// floatClasses runs the float model over the images in chunks and
// returns each image's argmax class.
func floatClasses(m *models.ImageModel, imgs [][]float32) []int {
	out := make([]int, 0, len(imgs))
	for lo := 0; lo < len(imgs); lo += 256 {
		hi := min(lo+256, len(imgs))
		logits := m.Forward(imgs[lo:hi], false)
		for i := 0; i < hi-lo; i++ {
			row := logits.Data[i*m.Classes : (i+1)*m.Classes]
			best := 0
			for c := range row {
				if row[c] > row[best] {
					best = c
				}
			}
			out = append(out, best)
		}
	}
	return out
}

// loadFamily is one in-process set-up: artifact.LoadModelFile, then
// demoplan.FamilyFromModel over the default ladder, each inside its own
// span under parent. It returns the family and the load and compile
// times.
func loadFamily(path string, reg *obs.Registry, tr *tracer, parent int) (*intinfer.Family, time.Duration, time.Duration, error) {
	t0 := time.Now()
	sp := tr.begin("artifact.LoadModelFile", parent, -1)
	m, _, err := artifact.LoadModelFile(path)
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("load artifact: %w", err)
	}
	t1 := time.Now()
	sp = tr.begin("demoplan.FamilyFromModel", parent, -1)
	fam, err := demoplan.FamilyFromModel(m, reg, demoplan.DefaultBudgets)
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("compile family: %w", err)
	}
	return fam, t1.Sub(t0), time.Since(t1), nil
}
