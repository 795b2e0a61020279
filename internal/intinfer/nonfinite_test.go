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
// covers the batched lane's linears and the per-image float64 GEMV; the
// VGG CNN covers the gather + packed GEMM convs, pooling and the head in
// both lanes; the ResNet covers the residual adds and their folded
// ReLUs in both lanes.
type lanePair struct {
	name         string
	fast, direct *Plan
	base         [][]float32 // clean images of the plan's geometry
}

func buildLanePairs(tb testing.TB) []lanePair {
	tb.Helper()
	m, train, test := trainedMLP(tb)
	mlp, mlpDirect := buildPair(tb, m, Options{Calibration: train.Images[:32]})
	if mlp.chunk == 0 {
		tb.Fatal("MLP plan was not admitted to the batched linear lane")
	}
	g := models.CNNGeom{InC: 3, InH: 8, InW: 8, Classes: 4}
	cm := models.NewVGGStyle(g, 47)
	qsim.FoldBatchNorm(cm)
	ds := datasets.ImageClasses(96, g.Classes, g.InC, g.InH, g.InW, 48)
	cnn, cnnDirect := buildPair(tb, cm, Options{Calibration: ds.Images[:16]})
	rm := models.NewResNetStyle(g, 49)
	qsim.FoldBatchNorm(rm)
	resnet, resnetDirect := buildPair(tb, rm, Options{Calibration: ds.Images[:16]})
	if cnn.chunk == 0 || resnet.chunk == 0 {
		tb.Fatal("conv plan was not admitted to the batched lane")
	}
	return []lanePair{
		{"mlp", mlp, mlpDirect, test.Images},
		{"cnn", cnn, cnnDirect, ds.Images[16:]},
		{"resnet", resnet, resnetDirect, ds.Images[16:]},
	}
}

// assertLanesAgree checks the non-finite input contract on one plan
// pair: Infer's logits equal the direct reference's, and the batch and
// context entry points of both plans — the direct one off the batched
// lane, so its batches run image by image — predict what Classify
// predicts.
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, p := range []struct {
		lane string
		plan *Plan
	}{{"fast", lp.fast}, {"direct", lp.direct}} {
		batch, err := p.plan.InferBatch(images)
		if err != nil {
			tb.Fatalf("%s %s: InferBatch: %v", lp.name, p.lane, err)
		}
		par, err := p.plan.InferBatchContext(context.Background(), images, 2)
		if err != nil {
			tb.Fatalf("%s %s: InferBatchContext: %v", lp.name, p.lane, err)
		}
		for i, img := range images {
			cls, err := p.plan.ClassifyContext(ctx, img)
			if err != nil {
				tb.Fatalf("%s %s: ClassifyContext image %d: %v", lp.name, p.lane, i, err)
			}
			if batch[i] != want[i] || par[i] != want[i] || cls != want[i] {
				tb.Fatalf("%s %s: image %d: Classify %d, InferBatch %d, InferBatchContext %d, ClassifyContext %d",
					lp.name, p.lane, i, want[i], batch[i], par[i], cls)
			}
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
// full batched chunk plus a one-image remainder on every plan.
func TestNonFiniteInputsAgreeAcrossLanes(t *testing.T) {
	for _, lp := range buildLanePairs(t) {
		images := make([][]float32, maxChunk+1)
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
// pair batch puts the fuzzed image through the batched lane's quantizer.
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
