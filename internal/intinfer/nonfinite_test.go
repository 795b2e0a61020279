package intinfer

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/qsim"
)

// lanePair is one plan shape with its direct-reference twin. The MLP
// covers the batched linear8 lane and the per-image float64 GEMV; the
// CNN covers the gather + packed GEMM convs and the GEMV head.
type lanePair struct {
	name         string
	fast, direct *Plan
	base         [][]float32 // clean images of the plan's geometry
}

func buildLanePairs(tb testing.TB) []lanePair {
	tb.Helper()
	m, train, test := trainedMLP(tb)
	mlp, mlpDirect := buildPair(tb, m, Options{Calibration: train.Images[:32]})
	if !mlp.linear8 {
		tb.Fatal("MLP plan was not admitted to the batched linear lane")
	}
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	cm := models.NewVGGStyle(g, 47)
	qsim.FoldBatchNorm(cm)
	ds := datasets.ImageClasses(96, g.Classes, g.InC, g.InH, g.InW, 48)
	cnn, cnnDirect := buildPair(tb, cm, Options{Calibration: ds.Images[:16]})
	if countPack8(cnn.steps) == 0 {
		tb.Fatal("conv plan has no packed step")
	}
	return []lanePair{
		{"mlp", mlp, mlpDirect, test.Images},
		{"cnn", cnn, cnnDirect, ds.Images[16:]},
	}
}

// assertLanesAgree checks the non-finite input contract on one plan:
// Infer's logits equal the direct reference's, and the batched,
// parallel and context entry points predict what Classify predicts.
func assertLanesAgree(tb testing.TB, lp lanePair, images [][]float32) {
	tb.Helper()
	assertSameLogits(tb, lp.fast, lp.direct, images, lp.name)
	want := make([]int, len(images))
	for i, img := range images {
		cls, err := lp.fast.Classify(img)
		if err != nil {
			tb.Fatalf("%s: Classify image %d: %v", lp.name, i, err)
		}
		want[i] = cls
	}
	batch, err := lp.fast.InferBatch(images)
	if err != nil {
		tb.Fatalf("%s: InferBatch: %v", lp.name, err)
	}
	par, err := lp.fast.InferBatchParallel(images, 2)
	if err != nil {
		tb.Fatalf("%s: InferBatchParallel: %v", lp.name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, img := range images {
		cls, err := lp.fast.ClassifyContext(ctx, img)
		if err != nil {
			tb.Fatalf("%s: ClassifyContext image %d: %v", lp.name, i, err)
		}
		if batch[i] != want[i] || par[i] != want[i] || cls != want[i] {
			tb.Fatalf("%s: image %d: Classify %d, InferBatch %d, InferBatchParallel %d, ClassifyContext %d",
				lp.name, i, want[i], batch[i], par[i], cls)
		}
	}
}

// nonFinite are the pixel values the input quantizer must map to a
// defined code: NaN (both signs) to 0, ±Inf and ±3e38 to ±127, the
// smallest subnormal to 0.
var nonFinite = []float32{
	float32(math.NaN()),
	math.Float32frombits(0xffc00001), // negative NaN with a payload
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32,
	3e38,
	-3e38,
}

// TestNonFiniteInputsAgreeAcrossLanes pins the semantics of NaN, ±Inf,
// subnormal and huge pixels on every lane. The 65-image batch runs one
// full linear8 chunk plus a one-image remainder on the MLP.
func TestNonFiniteInputsAgreeAcrossLanes(t *testing.T) {
	for _, lp := range buildLanePairs(t) {
		images := make([][]float32, linear8Cols+1)
		for i := range images {
			img := slices.Clone(lp.base[i%len(lp.base)])
			v := nonFinite[i%len(nonFinite)]
			for j := i % 7; j < len(img); j += 5 + i%3 {
				img[j] = v
			}
			images[i] = img
		}
		for j := range images[0] {
			images[0][j] = float32(math.NaN())
		}
		for j := range images[1] {
			images[1][j] = nonFinite[j%len(nonFinite)]
		}
		assertLanesAgree(t, lp, images)
	}
}

// FuzzClassify feeds arbitrary float32 bit patterns into the input
// quantizer of both plan shapes. Each 6-byte record of the input sets
// one pixel of a clean image: a little-endian uint16 position (modulo
// the image size), then the float32 bits. No input may panic, and every
// entry point must agree as in TestNonFiniteInputsAgreeAcrossLanes; the
// pair batch puts the fuzzed image through linear8's batched quantizer.
func FuzzClassify(f *testing.F) {
	for _, v := range nonFinite {
		seed := make([]byte, 0, 18)
		for _, pos := range []uint16{0, 77, 191} {
			seed = binary.LittleEndian.AppendUint16(seed, pos)
			seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	pairs := buildLanePairs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lp := range pairs {
			img := slices.Clone(lp.base[0])
			for rec := data; len(rec) >= 6; rec = rec[6:] {
				i := int(binary.LittleEndian.Uint16(rec)) % len(img)
				img[i] = math.Float32frombits(binary.LittleEndian.Uint32(rec[2:]))
			}
			assertLanesAgree(t, lp, [][]float32{img, lp.base[1]})
		}
	})
}
