package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	hybridlsh "repro"
)

// FuzzPointDecoders sends arbitrary bodies to /query, /batch and /append
// of a small l2 writer. No body may panic the node, every answer must be
// 200, 400 or 413, and on a 200 the points the node parsed must be,
// float32 bit for bit, what encoding/json decodes from the same body
// (the envelope through a json.Decoder as the handlers read it, each
// point as a []float64) narrowed to float32. That pins the decoders'
// semantics for any faster replacement of parseDense.
func FuzzPointDecoders(f *testing.F) {
	paths := []string{"/query", "/batch", "/append"}
	// The request shapes of the wire-golden tests, plus the number
	// spellings a float decoder must get right: exponents, −0, a float64
	// past float32's range and one below its smallest denormal.
	q := `[0.1, -0.25, 3e2, -0]`
	for _, seed := range []struct {
		path uint8
		body string
	}{
		{0, `{"point": ` + q + `}`},
		{0, `{"point": ` + q + `, "trace": true}`},
		{0, `{"point": [0.1, -0.25, 3e2]}`},
		{0, `{"point": ` + q + `, "probes": 3}`},
		{1, `{"points": [` + q + `, ` + q + `, ` + q + `], "workers": 2}`},
		{1, `{"points": []}`},
		{2, `{"points": [[1e39, -1e-46, 0.5E-3, 1]]}`},
		{2, `{"points": [` + q + `]} trailing`},
	} {
		f.Add(seed.path, []byte(seed.body))
	}

	node := newFuzzNode(f)
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := paths[int(which)%len(paths)]
		if node.appended >= fuzzRebuild {
			node.boot()
		}
		node.parsed = node.parsed[:0]
		rec := postRaw(node.h, path, body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		want := referencePoints(t, body)
		if len(node.parsed) != len(want) {
			t.Fatalf("%s %q: node parsed %d points, encoding/json decodes %d", path, body, len(node.parsed), len(want))
		}
		for i, p := range node.parsed {
			for j, v := range p {
				if math.Float32bits(v) != math.Float32bits(want[i][j]) {
					t.Fatalf("%s %q: point %d dim %d parsed as %v, encoding/json gives %v", path, body, i, j, v, want[i][j])
				}
			}
		}
		if path == "/append" {
			node.appended++
		}
	})
}

// fuzzNode is the writer FuzzPointDecoders talks to, its parser wrapped
// to record every point it returns. Appends grow the index, so the node
// is rebuilt after fuzzRebuild successful appends.
type fuzzNode struct {
	tb       testing.TB
	h        http.Handler
	parsed   []hybridlsh.Dense
	appended int
}

const fuzzRebuild = 500

func newFuzzNode(tb testing.TB) *fuzzNode {
	n := &fuzzNode{tb: tb}
	n.boot()
	return n
}

func (n *fuzzNode) boot() {
	cfg := testConfig()
	cfg.N, cfg.Dim, cfg.Shards = 64, 4, 2
	cfg.MaxBody = 512 // small enough for the fuzzer to reach 413
	s, err := New(cfg)
	if err != nil {
		n.tb.Fatal(err)
	}
	e := s.be.(*engine[hybridlsh.Dense])
	parse := e.parse
	e.parse = func(raw json.RawMessage, dim int) (hybridlsh.Dense, error) {
		p, err := parse(raw, dim)
		if err == nil {
			n.parsed = append(n.parsed, p)
		}
		return p, err
	}
	n.h, n.appended = s.Handler(), 0
}

// referencePoints decodes a body the handlers answered 200 with
// encoding/json alone: the envelope's "point" or "points", each point as
// a []float64 narrowed to float32.
func referencePoints(t *testing.T, body []byte) [][]float32 {
	t.Helper()
	var env struct {
		Point  json.RawMessage
		Points []json.RawMessage
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		t.Fatalf("%q answered 200 but encoding/json rejects it: %v", body, err)
	}
	raws := env.Points
	if len(env.Point) > 0 {
		raws = []json.RawMessage{env.Point}
	}
	out := make([][]float32, len(raws))
	for i, raw := range raws {
		var vals []float64
		if err := json.Unmarshal(raw, &vals); err != nil {
			t.Fatalf("%q answered 200 but point %d does not decode: %v", body, i, err)
		}
		out[i] = make([]float32, len(vals))
		for j, v := range vals {
			out[i][j] = float32(v)
		}
	}
	return out
}
