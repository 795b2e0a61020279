package serve

import (
	"bytes"
	"strconv"
)

// decodeClassify fills in from a classify body in one pass, without
// reflection: one scan of the bytes, one allocation for the image (sized
// to inLen, the model's input length) and a second only when a quality
// hint is present. Numbers are converted with the calls encoding/json
// makes — strconv.ParseFloat at 32 bits for pixels and 64 for quality,
// strconv.ParseInt for deadline_ms and budget — and only after the token
// passes the JSON number grammar, so strconv's wider syntax (NaN, Inf,
// hex floats, "+1", ".5") never gets through and every decoded value is
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
		if p.consume(']') {
			return img, true
		}
		if !p.consume(',') {
			return nil, false
		}
	}
}

func (p *bodyScanner) float(bitSize int) (float64, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), bitSize)
	return v, err == nil
}

func (p *bodyScanner) integer(bitSize int) (int64, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, bitSize)
	return n, err == nil
}

// number returns the next token if it is a JSON number (RFC 8259 §6):
//
//	-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
//
// It stops at the first byte the grammar cannot extend the token with;
// the caller's structural check rejects what follows if that byte is no
// delimiter ("01", "1x").
func (p *bodyScanner) number() ([]byte, bool) {
	p.skipSpace()
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	p.i = i
	return b[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
