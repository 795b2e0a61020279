package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/datasets"
)

// cnnImage is one image of the demo CNN's input distribution (3×8×8 =
// 192 values), the shape closed_cnn traffic carries.
func cnnImage() []float32 {
	return datasets.ImageClassesHard(4, 4, 3, 8, 8, 0.4, 0.4, 96).Images[0]
}

func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// wireBodies are the body forms real clients send: json.Marshal of
// classifyRequest with each hint shape, and trserve selfload's
// map[string]any bodies, whose keys come out sorted.
func wireBodies(tb testing.TB, img []float32) map[string][]byte {
	q := func(v float64) *float64 { return &v }
	return map[string][]byte{
		"struct, no hint":  marshal(tb, classifyRequest{Image: img, DeadlineMs: 1000}),
		"struct, budget":   marshal(tb, classifyRequest{Image: img, DeadlineMs: 1000, Budget: 4}),
		"struct, quality":  marshal(tb, classifyRequest{Image: img, DeadlineMs: 1000, Quality: q(1)}),
		"struct, both":     marshal(tb, classifyRequest{Image: img, Budget: 8, Quality: q(0.5)}),
		"struct, zero":     marshal(tb, classifyRequest{Image: img}),
		"selfload":         marshal(tb, map[string]any{"image": img, "deadline_ms": 2000}),
		"selfload, budget": marshal(tb, map[string]any{"image": img, "deadline_ms": 2000, "budget": 4}),
	}
}

// decodeReference decodes body the way the handler did before the
// one-pass parser, and still does for every body that parser hands on.
func decodeReference(body []byte) (classifyRequest, error) {
	var in classifyRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&in)
	return in, err
}

// diffRequest describes how got differs from want, comparing every float
// bit for bit; "" when they are equal.
func diffRequest(got, want classifyRequest) string {
	if (got.Image == nil) != (want.Image == nil) || len(got.Image) != len(want.Image) {
		return fmt.Sprintf("image %v, want %v", got.Image, want.Image)
	}
	for i := range got.Image {
		if math.Float32bits(got.Image[i]) != math.Float32bits(want.Image[i]) {
			return fmt.Sprintf("image[%d] = %g (%#x), want %g (%#x)", i,
				got.Image[i], math.Float32bits(got.Image[i]), want.Image[i], math.Float32bits(want.Image[i]))
		}
	}
	switch {
	case got.DeadlineMs != want.DeadlineMs:
		return fmt.Sprintf("deadline_ms %d, want %d", got.DeadlineMs, want.DeadlineMs)
	case got.Budget != want.Budget:
		return fmt.Sprintf("budget %d, want %d", got.Budget, want.Budget)
	case (got.Quality == nil) != (want.Quality == nil):
		return fmt.Sprintf("quality %v, want %v", got.Quality, want.Quality)
	case got.Quality != nil && math.Float64bits(*got.Quality) != math.Float64bits(*want.Quality):
		return fmt.Sprintf("quality %g, want %g", *got.Quality, *want.Quality)
	}
	return ""
}

// badNumerals are numerals strconv.ParseFloat accepts, or at least
// starts on, that the JSON number grammar forbids.
var badNumerals = []string{"NaN", "Inf", "Infinity", "+1", ".5", "1.", "01", "0x1p-2", "1e", "-"}

// float32Overflow is a valid JSON number out of a pixel's float32 range.
const float32Overflow = "1e39"

// FuzzDecodeClassify is the one-pass parser's differential property:
// whatever body it accepts, encoding/json accepts too and decodes to the
// same fields, every pixel and quality equal bit for bit. Bodies it
// rejects go to encoding/json in the handler, so they need no check here.
func FuzzDecodeClassify(f *testing.F) {
	img := []float32{0.5, -1.25e-7, 3, float32(math.Copysign(0, -1)), 1e-45, 3.4028235e38}
	for _, b := range wireBodies(f, img) {
		f.Add(b)
	}
	for _, s := range []string{
		`{}`, ` {"image":[]} `, "\t{\r\n\"image\" : [ 1 , -2.5E+3 ,0.0e-0 ] ,\n \"budget\":4 } trailing",
		`{"image":[1]}{"image":[2]}`, `{"deadline_ms":-0,"quality":-0}`, `{"quality":1E400}`,
		`{"image":[1e-50]}`, `{"budget":9223372036854775808}`, `{"deadline_ms":1.5}`,
		`null`, `{"image":null}`, `{"quality":null}`, `{"Image":[1]}`, `{"image":[1]}`,
		`{"image":[1],"image":[2]}`, `{"image":[1],}`, `{"image":[1,]}`, `{"budget":"4"}`,
		`{"other":1}`, `{"image":[1] "budget":4}`, `{"image":[1`, `[1]`, ``,
	} {
		f.Add([]byte(s))
	}
	for _, n := range append(badNumerals, float32Overflow) {
		f.Add([]byte(`{"image":[` + n + `]}`))
		f.Add([]byte(`{"quality":` + n + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got classifyRequest
		if !decodeClassify(body, 4, &got) {
			return
		}
		want, err := decodeReference(body)
		if err != nil {
			t.Fatalf("one-pass parser accepted %q; encoding/json rejects it: %v", body, err)
		}
		if d := diffRequest(got, want); d != "" {
			t.Fatalf("%q: one-pass %s", body, d)
		}
	})
}

// TestDecodeClassifyWireForms pins that the bodies clients actually send
// take the one-pass path: were one to fall back to encoding/json, it
// would still be answered correctly, and the decode saving would vanish
// without any other test noticing.
func TestDecodeClassifyWireForms(t *testing.T) {
	img := cnnImage()
	for name, body := range wireBodies(t, img) {
		var got classifyRequest
		if !decodeClassify(body, len(img), &got) {
			t.Errorf("%s: body falls back to encoding/json: %s", name, body)
			continue
		}
		want, err := decodeReference(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := diffRequest(got, want); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestDecodeClassifyHandsOn pins the other half of the parser's
// contract: the body forms its doc comment names go to encoding/json,
// even where the parser could have read them, so their result stays
// the reference decoder's by construction.
func TestDecodeClassifyHandsOn(t *testing.T) {
	for _, body := range []string{
		`{"image":[1],"image":[2]}`, `{"budget":4,"budget":8}`,
		`{"Image":[1]}`, `{"im\u0061ge":[1]}`, `{"image":[1],"other":1}`,
		`{"image":null}`, `{"quality":null}`, `{"deadline_ms":null}`, `null`,
		`{"image":[1e39]}`, `{"budget":9223372036854775808}`, `{"deadline_ms":1.5}`,
		`{"image":[1],}`, `{"image":[1]`, ``,
	} {
		var in classifyRequest
		if decodeClassify([]byte(body), 4, &in) {
			t.Errorf("%s decoded in one pass; want it handed to encoding/json", body)
		}
	}
}

// TestDecodeClassifyAllocs pins the parser's one allocation per body:
// the image slice, made once at the model's input length.
func TestDecodeClassifyAllocs(t *testing.T) {
	img := cnnImage()
	body := marshal(t, classifyRequest{Image: img, DeadlineMs: 1000, Budget: 4})
	allocs := testing.AllocsPerRun(100, func() {
		var in classifyRequest
		if !decodeClassify(body, len(img), &in) || len(in.Image) != len(img) {
			t.Fatal("closed_cnn body did not decode in one pass")
		}
	})
	if allocs != 1 {
		t.Errorf("decoding a %d-value body costs %v allocations, want 1 (the image)", len(img), allocs)
	}
}

var decodeSink classifyRequest

// BenchmarkDecodeClassify compares encoding/json with the one-pass
// parser on a closed_cnn request body: 192 values and a budget hint.
func BenchmarkDecodeClassify(b *testing.B) {
	img := cnnImage()
	body := marshal(b, classifyRequest{Image: img, DeadlineMs: 1000, Budget: 4})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			in, err := decodeReference(body)
			if err != nil {
				b.Fatal(err)
			}
			decodeSink = in
		}
	})
	b.Run("one_pass", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var in classifyRequest
			if !decodeClassify(body, len(img), &in) {
				b.Fatal("body fell back")
			}
			decodeSink = in
		}
	})
}
