package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"

	hybridlsh "repro"
)

// A request body is decoded in one of two ways, chosen by the body alone.
// The scanner reads the canonical envelope — {"point":[…]} or
// {"points":[[…],…]} plus the keys the endpoint declares, each key
// exact-case, unescaped and at most once — in one pass, straight into
// points: no RawMessage copy, no []float64, no reflection. Anything else
// (an escaped or case-folded key, a duplicate key, null anywhere, -0 as a
// bit, a wrong dimension, an out-of-range number, an unknown key, an
// empty body) makes it decline, and the fallback decodes the body again
// exactly as the handlers always have. The fallback is the reference
// semantics and the only source of 400 texts; the scanner only ever
// returns what the fallback returns for the same body. Bytes after the
// first JSON value are ignored on both paths.

// fields is a set of envelope keys; bit i is fieldNames[i].
type fields uint8

const (
	fieldPoint fields = 1 << iota
	fieldPoints
	fieldWorkers
	fieldProbes
	fieldRadius
	fieldTrace
)

var fieldNames = [...]string{"point", "points", "workers", "probes", "radius", "trace"}

// The keys each endpoint declares.
const (
	queryFields  = fieldPoint | fieldProbes | fieldRadius | fieldTrace
	batchFields  = fieldPoints | fieldWorkers | fieldProbes | fieldRadius | fieldTrace
	appendFields = fieldPoints
)

// envelope is a decoded request minus its parsed points.
type envelope struct {
	raw            []json.RawMessage // the points as the fallback left them, for parse
	workers        int
	probes, radius *int
	trace          bool
}

// request is one decoded /query, /batch or /append body: its points were
// parsed by the scanner (pts) or are left raw by the fallback, so that a
// bad option is still reported before a bad point.
type request[P any] struct {
	envelope
	pts []P
}

// scanner is a cursor over a request body. Its methods return false to
// decline.
type scanner struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c after optional whitespace.
func (s *scanner) eat(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// key reads one member name and the colon after it. Only the declared
// keys spelled exactly pass: an escape, a capital or a non-ASCII byte
// declines, since encoding/json would unescape or case-fold it.
func (s *scanner) key() (fields, bool) {
	if !s.eat('"') {
		return 0, false
	}
	start := s.i
	for ; s.i < len(s.b) && s.b[s.i] != '"'; s.i++ {
		if c := s.b[s.i]; c < 'a' || c > 'z' {
			return 0, false
		}
	}
	if s.i == len(s.b) {
		return 0, false
	}
	k := s.b[start:s.i]
	s.i++
	for i, name := range fieldNames {
		if string(k) == name {
			return 1 << i, s.eat(':')
		}
	}
	return 0, false
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number returns the next value's text when it is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() ([]byte, bool) {
	s.peek()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := skipDigits(b, i); j > i {
		i = j
	} else {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
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
		j := skipDigits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.i = i
	return b[start:i], true
}

// int reads an integer the way encoding/json fills an int: ParseInt of
// the number's text, which refuses fractions, exponents and overflow.
func (s *scanner) int() (int, bool) {
	t, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(t), 10, 64)
	return int(n), err == nil
}

// bool reads true or false.
func (s *scanner) bool() (v, ok bool) {
	s.peek()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// array reads a JSON array of exactly n elements, each read by elem.
func (s *scanner) array(n int, elem func(i int) bool) bool {
	if !s.eat('[') {
		return false
	}
	for i := 0; i < n; i++ {
		if i > 0 && !s.eat(',') || !elem(i) {
			return false
		}
	}
	return s.eat(']')
}

// scanDense reads a point of dim numbers. Each is parsed as
// encoding/json parses a float64 and narrowed to float32, so the point
// is parseDense's bit for bit.
func scanDense(s *scanner, dim int) (hybridlsh.Dense, bool) {
	p := make(hybridlsh.Dense, dim)
	return p, s.array(dim, func(i int) bool {
		t, ok := s.number()
		if !ok {
			return false
		}
		v, err := strconv.ParseFloat(string(t), 64)
		p[i] = float32(v)
		return err == nil
	})
}

// scanBinary reads a point of dim bits, each the single character 0 or 1
// (parseBinary also takes -0 and other spellings; those decline).
func scanBinary(s *scanner, dim int) (hybridlsh.Binary, bool) {
	b := hybridlsh.NewBinaryVector(dim)
	return b, s.array(dim, func(i int) bool {
		switch s.peek() {
		case '1':
			b.SetBit(i, true)
		case '0':
		default:
			return false
		}
		s.i++
		return true
	})
}

// scan decodes body when it is a canonical envelope of the allowed keys
// holding at least one point; ok false declines.
func scan[P any](body []byte, allowed fields, dim int, point func(*scanner, int) (P, bool)) (request[P], bool) {
	var req request[P]
	s := scanner{b: body}
	if !s.eat('{') {
		return req, false
	}
	var seen fields
	for {
		f, ok := s.key()
		if !ok || f&allowed == 0 || f&seen != 0 {
			return req, false
		}
		seen |= f
		switch f {
		case fieldPoint:
			var p P
			if p, ok = point(&s, dim); ok {
				req.pts = []P{p}
			}
		case fieldPoints:
			if ok = s.eat('['); !ok {
				break
			}
			for ok {
				var p P
				if p, ok = point(&s, dim); ok {
					req.pts = append(req.pts, p)
					if !s.eat(',') {
						ok = s.eat(']')
						break
					}
				}
			}
		case fieldWorkers:
			req.workers, ok = s.int()
		case fieldProbes:
			var n int
			n, ok = s.int()
			req.probes = &n
		case fieldRadius:
			var n int
			n, ok = s.int()
			req.radius = &n
		case fieldTrace:
			req.trace, ok = s.bool()
		}
		if !ok {
			return req, false
		}
		if !s.eat(',') {
			break
		}
	}
	// No point at all is the fallback's to report.
	return req, s.eat('}') && seen&(fieldPoint|fieldPoints) != 0
}

// fallback decodes body as the handlers always have: the envelope through
// encoding/json with unknown keys refused, the points left raw for parse.
// Each endpoint keeps its own anonymous struct, so encoding/json's type
// errors name the fields exactly as before.
func fallback(body []byte, allowed fields) (env envelope, err error) {
	switch allowed {
	case queryFields:
		var req struct {
			Point  json.RawMessage `json:"point"`
			Probes *int            `json:"probes"`
			Radius *int            `json:"radius"`
			Trace  bool            `json:"trace"`
		}
		if err = decodeJSON(body, &req); err != nil {
			return env, err
		}
		if len(req.Point) == 0 {
			return env, errors.New(`missing "point"`)
		}
		return envelope{raw: []json.RawMessage{req.Point}, probes: req.Probes, radius: req.Radius, trace: req.Trace}, nil
	case batchFields:
		var req struct {
			Points  []json.RawMessage `json:"points"`
			Workers int               `json:"workers"`
			Probes  *int              `json:"probes"`
			Radius  *int              `json:"radius"`
			Trace   bool              `json:"trace"`
		}
		if err = decodeJSON(body, &req); err != nil {
			return env, err
		}
		env = envelope{raw: req.Points, workers: req.Workers, probes: req.Probes, radius: req.Radius, trace: req.Trace}
	default:
		var req struct {
			Points []json.RawMessage `json:"points"`
		}
		if err = decodeJSON(body, &req); err != nil {
			return env, err
		}
		env.raw = req.Points
	}
	if len(env.raw) == 0 {
		return env, errors.New(`missing "points"`)
	}
	return env, nil
}
