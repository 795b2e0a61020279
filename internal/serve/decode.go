package serve

import (
	"bytes"
	"math"
	"strconv"
)

// decodeClassify fills in from a classify body in one pass, without
// reflection: one scan of the bytes, one allocation for the image (sized
// to inLen, the model's input length) and a second only when a quality
// hint is present. Each numeral is checked against the JSON number
// grammar and read into a decimal mantissa and exponent in the same
// loop, so strconv's wider syntax (NaN, Inf, hex floats, "+1", ".5")
// never gets through. Pixels and quality then take an exact float64 step
// (decimal.exact) that gives strconv.ParseFloat's answer at 32 and 64
// bits — the calls encoding/json makes — and any numeral the step cannot
// prove goes to ParseFloat itself; deadline_ms and budget go to
// strconv.ParseInt, as there. Every decoded value is therefore
// bit-identical to encoding/json's.
//
// It reports false for any body it does not fully handle: a syntax
// error, an out-of-range number, null, a key that is escaped, unknown,
// repeated or differently cased. The caller then decodes the same bytes
// with encoding/json, which stays the reference, so such bodies keep its
// result and its error messages. Bytes after the object are ignored, as
// json.Decoder ignores them.
func decodeClassify(body []byte, inLen int, in *classifyRequest) bool {
	p := bodyScanner{b: body}
	if !p.consume('{') {
		return false
	}
	if p.consume('}') {
		return true
	}
	var seen uint8
	for {
		k, ok := p.key()
		if !ok || !p.consume(':') {
			return false
		}
		var field uint8
		switch string(k) {
		case "image":
			field = 1
			in.Image, ok = p.image(inLen)
		case "deadline_ms":
			field = 2
			in.DeadlineMs, ok = p.integer(64)
		case "budget":
			field = 4
			var n int64
			n, ok = p.integer(strconv.IntSize)
			in.Budget = int(n)
		case "quality":
			field = 8
			var q float64
			q, ok = p.float(64)
			in.Quality = &q
		}
		if field == 0 || !ok || seen&field != 0 {
			return false
		}
		seen |= field
		if p.consume('}') {
			return true
		}
		if !p.consume(',') {
			return false
		}
	}
}

// bodyScanner is decodeClassify's cursor over the body.
type bodyScanner struct {
	b []byte
	i int
}

// skipSpace advances past JSON whitespace.
func (p *bodyScanner) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (p *bodyScanner) consume(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key returns the raw bytes of the next string, up to its first quote.
// An escaped key comes back cut short or with its backslash, so it
// never equals a field name and decodeClassify hands the body on.
func (p *bodyScanner) key() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(p.b[p.i:], '"')
	if n < 0 {
		return nil, false
	}
	k := p.b[p.i : p.i+n]
	p.i += n + 1
	return k, true
}

// image reads the pixel array into a slice of capacity inLen; a longer
// array grows it, and the handler then rejects its length.
func (p *bodyScanner) image(inLen int) ([]float32, bool) {
	if !p.consume('[') {
		return nil, false
	}
	img := make([]float32, 0, inLen)
	if p.consume(']') {
		return img, true
	}
	for {
		v, ok := p.float(32)
		if !ok {
			return nil, false
		}
		img = append(img, float32(v))
		p.skipSpace()
		if p.i == len(p.b) {
			return nil, false
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case ']':
			p.i++
			return img, true
		default:
			return nil, false
		}
	}
}

// float reads the next numeral as strconv.ParseFloat(tok, bitSize)
// would, reporting false where it would err (out of range) or the token
// is no JSON number.
func (p *bodyScanner) float(bitSize int) (float64, bool) {
	var d decimal
	tok, ok := p.numeral(&d)
	if !ok {
		return 0, false
	}
	if v, ok := d.exact(bitSize); ok {
		return v, true
	}
	v, err := strconv.ParseFloat(string(tok), bitSize)
	return v, err == nil
}

func (p *bodyScanner) integer(bitSize int) (int64, bool) {
	var d decimal
	tok, ok := p.numeral(&d)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, bitSize)
	return n, err == nil
}

// decimal is a scanned numeral's value, (-1)^neg · mant · 10^exp unless
// lossy.
type decimal struct {
	mant  uint64
	exp   int
	neg   bool
	lossy bool // past 19 significant digits, or an exponent past expCap
}

// expCap bounds the exponent a numeral's e-part adds; a larger one marks
// the numeral lossy, which only sends it to strconv.
const expCap = 1 << 16

// numeral returns the next token if it is a JSON number (RFC 8259 §6),
// and its value in d:
//
//	-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
//
// accumulating its significant digits into a uint64 mantissa in the same
// loop; digit counts come from indices afterwards. It stops at the first
// byte the grammar cannot extend the token with; the caller's structural
// check rejects what follows if that byte is no delimiter ("01", "1x").
// d is the caller's, not a result: a returned decimal would be copied
// through the stack in 16-byte moves that stall on its 8-byte stores.
func (p *bodyScanner) numeral(d *decimal) ([]byte, bool) {
	p.skipSpace()
	b, start := p.b, p.i
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	first := i
	var m uint64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
	default:
		return nil, false
	}
	nd, exp := i-first, 0
	if i < len(b) && b[i] == '.' {
		i++
		f := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if i == f {
			return nil, false
		}
		nd += i - f
		exp = f - i
	}
	lossy := false
	if nd > 19 {
		// Leading zeros ("0.000…") leave m at 0 and only move exp; past
		// them, a 20th digit has overflowed m.
		z := 0
		for j := first; j < i && (b[j] == '0' || b[j] == '.'); j++ {
			if b[j] == '0' {
				z++
			}
		}
		lossy = nd-z > 19
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		f, x := i, 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if x < expCap {
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == f {
			return nil, false
		}
		lossy = lossy || x >= expCap
		if eneg {
			x = -x
		}
		exp += x
	}
	*d = decimal{mant: m, exp: exp, neg: neg, lossy: lossy}
	p.i = i
	return b[start:i], true
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// exact is the conversion's fast step: d's value rounded to bitSize (32
// or 64) bits, as strconv.ParseFloat returns it, when the step can prove
// that answer, and false otherwise (the caller then asks strconv).
//
// With mant ≤ 2^53 and |exp| ≤ 22 both float64(mant) and 10^|exp| are
// exact, so the one IEEE multiply or divide rounds the decimal value x
// once: v is x rounded to float64. For 32 bits, rounding is monotone and
// every float32 and every midpoint between neighbouring float32s in this
// range (1e-22 to 9.0e37, all normal) is a float64, so float32(v) is x
// rounded to float32 unless v lies exactly on such a midpoint — the
// 29 significand bits float32 drops reading 1<<28 — where x may lie on
// either side and only strconv can tell. The sign goes on last, so "-0"
// stays -0.
func (d *decimal) exact(bitSize int) (float64, bool) {
	if d.lossy || d.mant > 1<<53 || d.exp < -22 || d.exp > 22 {
		return 0, false
	}
	v := float64(d.mant)
	if d.exp < 0 {
		v /= pow10[-d.exp]
	} else {
		v *= pow10[d.exp]
	}
	if bitSize == 32 {
		if math.Float64bits(v)&(1<<29-1) == 1<<28 {
			return 0, false
		}
		v = float64(float32(v))
	}
	if d.neg {
		v = -v
	}
	return v, true
}
