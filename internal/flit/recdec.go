package flit

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/exec"
)

// The record decoder.
//
// Artifacts and store payloads are written by encoding/json, and
// encoding/json stays the definition of what their bytes mean. Its
// reflection-driven decoder is most of a warm re-run's time, though, so
// every read first goes through recDecoder: one pass over the bytes that
// knows only the artifact grammar (the Artifact header, its Shard, and a
// list of RunRecord). It refines encoding/json rather than replacing it:
// it accepts input only where encoding/json decodes the same value, and
// declines everything else, whereupon the caller decodes the same bytes
// with encoding/json and reports its value or error. It declines
//
//   - a field name that is not exactly a tag name of the type being read
//     (encoding/json would skip it, or match it ignoring case);
//   - a field given twice (encoding/json would overwrite the first);
//   - null (encoding/json would leave the field alone, or nil a slice);
//   - a number that is not a plain integer 0|[1-9][0-9]* within the
//     field's range, with a leading '-' allowed for int fields only;
//   - a control byte, invalid UTF-8 or a surrogate \u escape in a string
//     (encoding/json rejects the first and substitutes U+FFFD for the
//     others);
//   - any other byte the grammar does not expect, including anything but
//     whitespace after the top-level value.
//
// An empty list decodes to an empty non-nil slice, as encoding/json does.
// FuzzRecordDecodeMatchesJSON holds the decoder to this contract.
type recDecoder struct {
	b   []byte
	i   int    // read offset into b
	buf []byte // scratch for unescaping a string
}

// decodeFast reads one value with read and reports whether the decoder
// accepted the whole of data. On a decline it returns the zero value, so
// nothing half-read leaks into the fallback.
func decodeFast[T any](data []byte, read func(*recDecoder, *T) bool) (T, bool) {
	var v T
	d := recDecoder{b: data}
	if !read(&d, &v) || !d.end() {
		var zero T
		return zero, false
	}
	return v, true
}

// unmarshalRecord decodes one store payload: on the fast path when the
// decoder accepts it, otherwise exactly as json.Unmarshal does.
func unmarshalRecord[T any](data []byte, read func(*recDecoder, *T) bool) (T, error) {
	if v, ok := decodeFast(data, read); ok {
		return v, nil
	}
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

// artifact reads an Artifact object.
func (d *recDecoder) artifact(a *Artifact) bool {
	return d.object(func(name []byte) (bit uint, ok bool) {
		switch string(name) {
		case "version":
			return 1 << 0, d.intVal(&a.Version)
		case "engine":
			return 1 << 1, d.text(&a.Engine)
		case "command":
			a.Command, ok = list(d, (*recDecoder).text)
			return 1 << 2, ok
		case "shard":
			return 1 << 3, d.shard(&a.Shard)
		case "runs":
			a.Runs, ok = list(d, (*recDecoder).runRecord)
			return 1 << 4, ok
		}
		return 0, false
	})
}

// shard reads an exec.Shard object.
func (d *recDecoder) shard(s *exec.Shard) bool {
	return d.object(func(name []byte) (bit uint, ok bool) {
		switch string(name) {
		case "index":
			return 1 << 0, d.intVal(&s.Index)
		case "count":
			return 1 << 1, d.intVal(&s.Count)
		}
		return 0, false
	})
}

// runRecord reads a RunRecord object.
func (d *recDecoder) runRecord(r *RunRecord) bool {
	return d.object(func(name []byte) (bit uint, ok bool) {
		switch string(name) {
		case "key":
			return 1 << 0, d.text(&r.Key)
		case "vec":
			r.Vec, ok = list(d, (*recDecoder).bits)
			return 1 << 1, ok
		case "is_vec":
			return 1 << 2, d.flag(&r.IsVec)
		case "scalar":
			return 1 << 3, d.bits(&r.Scalar)
		case "err":
			return 1 << 4, d.text(&r.Err)
		case "segfault":
			return 1 << 5, d.flag(&r.Segfault)
		}
		return 0, false
	})
}

// object reads a JSON object member by member: field reads the value of
// the named member and returns a bit unique to that name, or declines an
// unknown name. A name seen twice declines the object.
func (d *recDecoder) object(field func(name []byte) (bit uint, ok bool)) bool {
	var seen uint
	for first := true; ; first = false {
		name, done, ok := d.member(first)
		if !ok || done {
			return ok
		}
		bit, ok := field(name)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// list reads a JSON array whose elements read decodes.
func list[T any](d *recDecoder, read func(*recDecoder, *T) bool) ([]T, bool) {
	s := []T{}
	for first := true; ; first = false {
		done, ok := d.elem(first)
		if !ok {
			return nil, false
		}
		if done {
			return s, true
		}
		var zero T
		s = append(s, zero)
		if !read(d, &s[len(s)-1]) {
			return nil, false
		}
	}
}

// ws skips JSON whitespace.
func (d *recDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat skips whitespace and then consumes c, reporting whether c was next.
func (d *recDecoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (d *recDecoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// member steps to the next member of an object: the first call consumes
// the '{', later ones the ',' after the previous value. It returns the
// member's name with the decoder at its value, or done at the closing '}'.
// A name holding an escape is declined: no tag name needs one.
func (d *recDecoder) member(first bool) (name []byte, done, ok bool) {
	if first {
		if !d.eat('{') {
			return nil, false, false
		}
		if d.eat('}') {
			return nil, true, true
		}
	} else if d.eat('}') {
		return nil, true, true
	} else if !d.eat(',') {
		return nil, false, false
	}
	if !d.eat('"') {
		return nil, false, false
	}
	start := d.i
	for d.i < len(d.b) && d.b[d.i] != '"' {
		if c := d.b[d.i]; c == '\\' || c < 0x20 {
			return nil, false, false
		}
		d.i++
	}
	if d.i == len(d.b) {
		return nil, false, false
	}
	name = d.b[start:d.i]
	d.i++
	return name, false, d.eat(':')
}

// elem steps to the next element of an array: the first call consumes the
// '[', later ones the ',' after the previous element. done reports the
// closing ']'.
func (d *recDecoder) elem(first bool) (done, ok bool) {
	if first {
		if !d.eat('[') {
			return false, false
		}
		return d.eat(']'), true
	}
	if d.eat(']') {
		return true, true
	}
	return false, d.eat(',')
}

// digits reads an unsigned integer in the canonical form 0|[1-9][0-9]*
// that is at most max. A fraction or exponent after it is left for the
// caller's grammar to decline.
func (d *recDecoder) digits(max uint64) (uint64, bool) {
	b, start, i := d.b, d.i, d.i
	var v uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		digit := uint64(b[i] - '0')
		if v > max/10 || v == max/10 && digit > max%10 {
			return 0, false
		}
		v = v*10 + digit
	}
	d.i = i
	n := i - start
	return v, n == 1 || n > 1 && b[start] != '0'
}

// bits reads a uint64: in this grammar always an IEEE-754 bit pattern.
func (d *recDecoder) bits(v *uint64) bool {
	d.ws()
	var ok bool
	*v, ok = d.digits(math.MaxUint64)
	return ok
}

// signed reads an integer that fits a signed integer of the given width.
func (d *recDecoder) signed(width int) (int64, bool) {
	d.ws()
	max := uint64(1)<<(width-1) - 1
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++ // JSON allows no space after the sign
		max++
	}
	v, ok := d.digits(max)
	if neg {
		return -int64(v), ok // -(1<<63) wraps to math.MinInt64, as it should
	}
	return int64(v), ok
}

// intVal reads an int field.
func (d *recDecoder) intVal(v *int) bool {
	n, ok := d.signed(strconv.IntSize)
	*v = int(n)
	return ok
}

// flag reads a bool field.
func (d *recDecoder) flag(v *bool) bool {
	d.ws()
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*v = true
		d.i += 4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*v = false
		d.i += 5
	default:
		return false
	}
	return true
}

// text reads a string. Runs of bytes between escapes are copied whole,
// and a string without escapes is converted straight from the input.
func (d *recDecoder) text(v *string) bool {
	if !d.eat('"') {
		return false
	}
	b, i := d.b, d.i // locals keep the byte scan in registers
	start, run := i, i
	d.buf = d.buf[:0]
	for {
		for i < len(b) && b[i] >= 0x20 && b[i] != '"' && b[i] != '\\' {
			i++
		}
		if i == len(b) || b[i] < 0x20 {
			return false
		}
		if b[i] == '"' {
			break
		}
		if run == start {
			// At the first escape, size the scratch for the string up to
			// the next quote, which usually closes it: growing it by
			// appends would allocate every payload's key several times.
			if n := bytes.IndexByte(b[i:], '"'); n > 0 {
				d.buf = slices.Grow(d.buf, i-start+n)
			}
		}
		d.buf = append(d.buf, b[run:i]...)
		d.i = i
		if !d.escape() {
			return false
		}
		i, run = d.i, d.i
	}
	d.i = i + 1
	if !utf8.Valid(b[start:i]) {
		return false
	}
	if run == start {
		*v = string(b[start:i])
	} else {
		d.buf = append(d.buf, b[run:i]...)
		*v = string(d.buf)
	}
	return true
}

// escape decodes the backslash escape at the read offset onto buf.
func (d *recDecoder) escape() bool {
	if d.i+1 >= len(d.b) {
		return false
	}
	c := d.b[d.i+1]
	d.i += 2
	switch c {
	case '"', '\\', '/':
		d.buf = append(d.buf, c)
	case 'b':
		d.buf = append(d.buf, '\b')
	case 'f':
		d.buf = append(d.buf, '\f')
	case 'n':
		d.buf = append(d.buf, '\n')
	case 'r':
		d.buf = append(d.buf, '\r')
	case 't':
		d.buf = append(d.buf, '\t')
	case 'u':
		if d.i+4 > len(d.b) {
			return false
		}
		var r rune
		for _, h := range d.b[d.i : d.i+4] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return false
			}
			r = r<<4 | rune(h)
		}
		if utf8.RuneLen(r) < 0 { // a surrogate half
			return false
		}
		d.buf = utf8.AppendRune(d.buf, r)
		d.i += 4
	default:
		return false
	}
	return true
}
