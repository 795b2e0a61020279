package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// cnnImage is one image of the demo CNN's input distribution (3×8×8 =
// 192 values), the shape closed_cnn traffic carries.
func cnnImage() []float32 {
	return datasets.ImageClassesHard(4, 4, 3, 8, 8, 0.4, 0.4, 96).Images[0]
}

// digitsImage is one image of the demo MLP's input distribution (12×12 =
// 144 values), the shape http_mlp traffic carries.
func digitsImage() []float32 {
	return datasets.DigitsNoisy(1, 0.2, 1).Images[0]
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
		`{"image":[16777217,1e22,1e-22,9007199254740993,0.00000000000000000000001]}`,
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
// parser on the two served body shapes: a closed_cnn body (192 values
// and a budget hint) and an http_mlp body (144 values, no hint).
func BenchmarkDecodeClassify(b *testing.B) {
	for _, shape := range []struct {
		name string
		img  []float32
		body classifyRequest
	}{
		{name: "cnn", img: cnnImage(), body: classifyRequest{DeadlineMs: 1000, Budget: 4}},
		{name: "mlp", img: digitsImage(), body: classifyRequest{DeadlineMs: 1000}},
	} {
		shape.body.Image = shape.img
		body := marshal(b, shape.body)
		perNumeral := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(shape.img)), "ns/numeral")
		}
		b.Run(shape.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				in, err := decodeReference(body)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = in
			}
			perNumeral(b)
		})
		b.Run(shape.name+"/one_pass", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var in classifyRequest
				if !decodeClassify(body, len(shape.img), &in) {
					b.Fatal("body fell back")
				}
				decodeSink = in
			}
			perNumeral(b)
		})
	}
}

// convert runs s through the body scanner's float conversion as one
// whole token: false when the scanner rejects s or stops short of its
// end, or the conversion fails.
func convert(s string, bitSize int) (float64, bool) {
	p := bodyScanner{b: []byte(s)}
	v, ok := p.float(bitSize)
	return v, ok && p.i == len(s)
}

// mismatch describes how convert and strconv.ParseFloat disagree on the
// JSON numeral s at 32 or 64 bits ("" when both reject it, or both
// accept it with the same bits), and reports whether the exact step
// proved the 32-bit answer without strconv.
func mismatch(s string) (diff string, exact bool) {
	for _, bits := range []int{32, 64} {
		got, ok := convert(s, bits)
		want, err := strconv.ParseFloat(s, bits)
		if ok != (err == nil) {
			return fmt.Sprintf("%q at %d bits: converter accepts %v, strconv err %v", s, bits, ok, err), false
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("%q at %d bits: converter %g (%#x), strconv %g (%#x)",
				s, bits, got, math.Float64bits(got), want, math.Float64bits(want)), false
		}
	}
	p := bodyScanner{b: []byte(s)}
	var d decimal
	_, ok := p.numeral(&d)
	_, exact = d.exact(32)
	return "", ok && exact
}

// TestNumeralMatchesStrconv is the converter's differential test: on
// numerals of random float32 values in every form strconv formats, on
// the float32 midpoints that the exact step must leave to strconv, and
// on the edges of the step's range, the converter returns strconv's bits
// at both widths and rejects exactly what strconv rejects.
func TestNumeralMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"16777217", "16777217.000000001", "16777216.999999999", "33554435",
		"9007199254740992", "9007199254740993",
		"1e22", "1e23", "1e-22", "1e-23",
		"1234567890123456789", "12345678901234567890", "0.1234567890123456789",
		"0.12345678901234567890", "1.234567890123456789e-5", "0.00000000000000000000001",
		"0." + strings.Repeat("0", 30) + "1",
		"-0", "1e-45", "3.4028235e38", float32Overflow,
		// The numerals of FuzzDecodeClassify's seeds.
		"0.5", "-1.25e-7", "3", "3.4028235e+38", "-2.5E+3", "0.0e-0", "1E400",
		"1e-50", "1", "2", "4", "8", "1.5", "1000", "2000", "9223372036854775808",
	} {
		if d, _ := mismatch(s); d != "" {
			t.Error(d)
		}
	}
	for _, s := range badNumerals {
		if _, ok := convert(s, 32); ok {
			t.Errorf("%q converted; the JSON number grammar forbids it", s)
		}
	}

	patterns := 1_000_000
	if raceEnabled {
		patterns = 2_000
	}
	rng := rand.New(rand.NewSource(1))
	inf := float32(math.Inf(1))
	var exact, total int
	check := func(s []byte) {
		d, ok := mismatch(string(s))
		if d != "" {
			t.Fatal(d)
		}
		if ok {
			exact++
		}
		total++
	}
	var buf []byte
	for n := 0; n < patterns; {
		f := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		n++
		x := float64(f)
		buf = strconv.AppendFloat(buf[:0], x, 'g', -1, 32)
		check(buf)
		for prec := 0; prec <= 11; prec++ {
			buf = strconv.AppendFloat(buf[:0], x, 'e', prec, 32)
			check(buf)
			buf = strconv.AppendFloat(buf[:0], x, 'f', prec, 32)
			check(buf)
		}
		next := float64(math.Nextafter32(f, inf))
		if math.IsInf(next, 1) {
			next = math.Ldexp(1, 128)
		}
		mid := x + (next-x)/2
		for _, prec := range []int{-1, 7, 15} {
			buf = strconv.AppendFloat(buf[:0], mid, 'e', prec, 64)
			check(buf)
		}
	}
	t.Logf("%d numerals, %d (%.1f%%) converted by the exact step", total, exact, 100*float64(exact)/float64(total))
	if exact < total/4 {
		t.Errorf("only %d of %d numerals took the exact step; the test no longer exercises it", exact, total)
	}
}

// TestWireNumeralsTakeExactPath pins that the numerals clients send
// never reach strconv: every value json.Marshal writes for 1,024 images
// of each demo input distribution converts by the exact step, to the
// image's own float32. Were they to fall back, every answer would stay
// right and the conversion saving would vanish unseen.
func TestWireNumeralsTakeExactPath(t *testing.T) {
	for name, imgs := range map[string][][]float32{
		"cnn":    datasets.ImageClassesHard(1024, 4, 3, 8, 8, 0.4, 0.4, 96).Images,
		"digits": datasets.DigitsNoisy(1024, 0.2, 1).Images,
	} {
		for _, img := range imgs {
			p := bodyScanner{b: marshal(t, img)}
			p.consume('[')
			for _, want := range img {
				var d decimal
				tok, ok := p.numeral(&d)
				if !ok {
					t.Fatalf("%s: no numeral at byte %d of %s", name, p.i, p.b)
				}
				v, ok := d.exact(32)
				if !ok {
					t.Fatalf("%s: %s reaches strconv", name, tok)
				}
				if math.Float32bits(float32(v)) != math.Float32bits(want) {
					t.Fatalf("%s: %s converts to %g, want %g", name, tok, v, want)
				}
				p.consume(',')
			}
		}
	}
}

// numeralOf writes m·10^e as a JSON numeral. form%3 picks the shape:
// positional (an integer for e ≥ 0, a fraction otherwise), m with an
// exponent, or scientific (one digit before the point); an odd form/3
// negates it, and an odd form/6 writes the exponent as "E+".
func numeralOf(m uint64, e int, form uint8) string {
	digits := strconv.FormatUint(m, 10)
	exp := func(x int) string {
		if form/6%2 == 1 && x >= 0 {
			return "E+" + strconv.Itoa(x)
		}
		return "e" + strconv.Itoa(x)
	}
	var s string
	switch form % 3 {
	case 0:
		switch {
		case m == 0:
			s = "0"
		case e >= 0:
			s = digits + strings.Repeat("0", e)
		case -e < len(digits):
			s = digits[:len(digits)+e] + "." + digits[len(digits)+e:]
		default:
			s = "0." + strings.Repeat("0", -e-len(digits)) + digits
		}
	case 1:
		s = digits + exp(e)
	default:
		s = digits[:1]
		if len(digits) > 1 {
			s += "." + digits[1:]
		}
		s += exp(e + len(digits) - 1)
	}
	if form/3%2 == 1 {
		s = "-" + s
	}
	return s
}

// FuzzNumeral drives the converter with numerals built from a mantissa
// and a decimal exponent, so the fuzzer reaches the exact step's edges
// (mantissas about 2^53, exponents about ±22, float32 midpoints, the
// float32 and float64 range ends) directly rather than through body
// syntax; every numeral must convert to strconv's bits at both widths.
func FuzzNumeral(f *testing.F) {
	for _, seed := range []struct {
		m uint64
		e int16
	}{
		{16777217, 0}, {33554435, 0}, {1 << 53, 0}, {1<<53 + 1, 0}, {1, 22}, {1, 23},
		{1, -22}, {1, -23}, {5, -1}, {125, -9}, {34028235, 31}, {34028236, 31},
		{1, -45}, {7, -46}, {1, 39}, {1, 308}, {1, 309}, {12345678901234567890, -30},
		{0, 0}, {0, -400}, {10000000000000000000, -19},
	} {
		for form := uint8(0); form < 12; form++ {
			f.Add(seed.m, seed.e, form)
		}
	}
	f.Fuzz(func(t *testing.T, m uint64, e int16, form uint8) {
		if d, _ := mismatch(numeralOf(m, int(e), form)); d != "" {
			t.Fatal(d)
		}
	})
}
