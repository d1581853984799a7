package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	hybridlsh "repro"
)

// FuzzPointDecoders sends arbitrary bodies to /query, /batch and /append
// of a small l2 writer and a small Hamming writer. No body may panic the
// node, every answer must be 200, 400 or 413, and on a 200 the points
// that reached the store must be, bit for bit, what encoding/json
// decodes from the same body (the envelope through a json.Decoder as the
// handlers always read it, each l2 point as a []float64 narrowed to
// float32, each Hamming point as a []int of 0s and 1s). That pins the
// request decoders' semantics to encoding/json's, whichever path decoded
// the body.
func FuzzPointDecoders(f *testing.F) {
	paths := []string{"/query", "/batch", "/append"}
	// The request shapes of the wire-golden tests, plus the number
	// spellings a float decoder must get right: exponents, −0, a float64
	// past float32's range and one below its smallest denormal. which
	// 0–2 picks a path on the l2 node, 3–5 on the Hamming node.
	q := `[0.1, -0.25, 3e2, -0]`
	bits := `[0,1,1,0,1,0,0,1]`
	for _, seed := range []struct {
		which uint8
		body  string
	}{
		{0, `{"point": ` + q + `}`},
		{0, `{"point": ` + q + `, "trace": true}`},
		{0, `{"point": [0.1, -0.25, 3e2]}`},
		{0, `{"point": ` + q + `, "probes": 3}`},
		{1, `{"points": [` + q + `, ` + q + `, ` + q + `], "workers": 2}`},
		{1, `{"points": []}`},
		{2, `{"points": [[1e39, -1e-46, 0.5E-3, 1]]}`},
		{2, `{"points": [` + q + `]} trailing`},
		{3, `{"point": ` + bits + `}`},
		{3, `{"point": [0,1,1,0,1,0,0,-0], "trace": true}`},
		{4, `{"points": [` + bits + `, [1,1,1,1,1,1,1,1]], "workers": 1}`},
		{5, `{"points": [` + bits + `, [0,0,0,0,0,0,0,2]]}`},
	} {
		f.Add(seed.which, []byte(seed.body))
	}

	nodes := []*fuzzNode{newFuzzNode(f, "l2", 4), newFuzzNode(f, "hamming", 8)}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := paths[int(which)%len(paths)]
		node := nodes[int(which)/len(paths)%len(nodes)]
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
			t.Fatalf("%s %s %q: status %d: %s", node.metric, path, body, rec.Code, rec.Body.Bytes())
		}
		want := referencePoints(t, node.metric, body)
		if len(node.parsed) != len(want) {
			t.Fatalf("%s %s %q: %d points reached the store, encoding/json decodes %d", node.metric, path, body, len(node.parsed), len(want))
		}
		for i, p := range node.parsed {
			for j, v := range p {
				if math.Float32bits(v) != math.Float32bits(want[i][j]) {
					t.Fatalf("%s %s %q: point %d dim %d reached the store as %v, encoding/json gives %v", node.metric, path, body, i, j, v, want[i][j])
				}
			}
		}
		if path == "/append" {
			node.appended++
		}
	})
}

// fuzzNode is a writer FuzzPointDecoders talks to. Its engine's onPoints
// hook records every request's points, as float32 coordinates or 0/1
// bits, where they reach the store. Appends grow the index, so the node
// is rebuilt after fuzzRebuild successful appends.
type fuzzNode struct {
	tb       testing.TB
	metric   string
	dim      int
	h        http.Handler
	parsed   [][]float32
	appended int
}

const fuzzRebuild = 500

func newFuzzNode(tb testing.TB, metric string, dim int) *fuzzNode {
	n := &fuzzNode{tb: tb, metric: metric, dim: dim}
	n.boot()
	return n
}

func (n *fuzzNode) boot() {
	cfg := testConfig()
	cfg.Metric, cfg.N, cfg.Dim, cfg.Shards = n.metric, 64, n.dim, 2
	if n.metric == "hamming" {
		cfg.Radius = 2
	}
	cfg.MaxBody = 512 // small enough for the fuzzer to reach 413
	s, err := New(cfg)
	if err != nil {
		n.tb.Fatal(err)
	}
	switch e := s.be.(type) {
	case *engine[hybridlsh.Dense]:
		e.onPoints = func(pts []hybridlsh.Dense) {
			for _, p := range pts {
				n.parsed = append(n.parsed, p)
			}
		}
	case *engine[hybridlsh.Binary]:
		e.onPoints = func(pts []hybridlsh.Binary) {
			for _, p := range pts {
				n.parsed = append(n.parsed, binaryFloats(p))
			}
		}
	}
	n.h, n.appended = s.Handler(), 0
}

// binaryFloats spells a Hamming point as 0/1 coordinates.
func binaryFloats(p hybridlsh.Binary) []float32 {
	out := make([]float32, p.Dim)
	for i := range out {
		if p.Bit(i) {
			out[i] = 1
		}
	}
	return out
}

// referencePoints decodes a body the handlers answered 200 with
// encoding/json alone: the envelope's "point" or "points", each point as
// a []float64 narrowed to float32 (l2) or a []int (hamming).
func referencePoints(t *testing.T, metric string, body []byte) [][]float32 {
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
		var err error
		if metric == "hamming" {
			var vals []int
			err = json.Unmarshal(raw, &vals)
			for _, v := range vals {
				out[i] = append(out[i], float32(v))
			}
		} else {
			var vals []float64
			err = json.Unmarshal(raw, &vals)
			for _, v := range vals {
				out[i] = append(out[i], float32(v))
			}
		}
		if err != nil {
			t.Fatalf("%q answered 200 but point %d does not decode: %v", body, i, err)
		}
	}
	return out
}

// The dims the decoder tests scan at: small enough for the fuzzer to
// write whole valid points.
const (
	decodeDenseDim  = 3
	decodeBinaryDim = 4
)

var decodeShapes = []fields{queryFields, batchFields, appendFields}

// scanBoth runs the scanner and the fallback on one body and reports
// each side's request with its points as float32 coordinates (Hamming
// bits as 0/1): the scanner's ok, and the fallback's error after its raw
// points went through parseDense or parseBinary.
func scanBoth(hamming bool, allowed fields, body []byte) (fast, ref request[[]float32], ok bool, refErr error) {
	var env envelope
	if hamming {
		req, scanned := scan(body, allowed, decodeBinaryDim, scanBinary)
		fast, ok = request[[]float32]{envelope: req.envelope}, scanned
		for _, p := range req.pts {
			fast.pts = append(fast.pts, binaryFloats(p))
		}
		if env, refErr = fallback(body, allowed); refErr == nil {
			for _, raw := range env.raw {
				p, err := parseBinary(raw, decodeBinaryDim)
				if err != nil {
					refErr = err
					break
				}
				ref.pts = append(ref.pts, binaryFloats(p))
			}
		}
	} else {
		req, scanned := scan(body, allowed, decodeDenseDim, scanDense)
		fast, ok = request[[]float32]{envelope: req.envelope}, scanned
		for _, p := range req.pts {
			fast.pts = append(fast.pts, p)
		}
		if env, refErr = fallback(body, allowed); refErr == nil {
			for _, raw := range env.raw {
				p, err := parseDense(raw, decodeDenseDim)
				if err != nil {
					refErr = err
					break
				}
				ref.pts = append(ref.pts, p)
			}
		}
	}
	ref.envelope = env
	ref.raw = nil
	return fast, ref, ok, refErr
}

// sameRequest reports how two decoded requests differ, or "".
func sameRequest(a, b request[[]float32]) string {
	intp := func(p *int) string {
		if p == nil {
			return "nil"
		}
		return strconv.Itoa(*p)
	}
	switch {
	case a.workers != b.workers:
		return fmt.Sprintf("workers %d vs %d", a.workers, b.workers)
	case intp(a.probes) != intp(b.probes):
		return fmt.Sprintf("probes %s vs %s", intp(a.probes), intp(b.probes))
	case intp(a.radius) != intp(b.radius):
		return fmt.Sprintf("radius %s vs %s", intp(a.radius), intp(b.radius))
	case a.trace != b.trace:
		return fmt.Sprintf("trace %v vs %v", a.trace, b.trace)
	case len(a.pts) != len(b.pts):
		return fmt.Sprintf("%d points vs %d", len(a.pts), len(b.pts))
	}
	for i := range a.pts {
		if len(a.pts[i]) != len(b.pts[i]) {
			return fmt.Sprintf("point %d: %d dims vs %d", i, len(a.pts[i]), len(b.pts[i]))
		}
		for j := range a.pts[i] {
			if math.Float32bits(a.pts[i][j]) != math.Float32bits(b.pts[i][j]) {
				return fmt.Sprintf("point %d dim %d: %v vs %v", i, j, a.pts[i][j], b.pts[i][j])
			}
		}
	}
	return ""
}

// FuzzRequestDecoder holds the scanner to the fallback, both point kinds
// and all three envelopes: whenever the scanner accepts a body, the
// fallback must accept it too and decode the same request — the points
// bit for bit, and workers, probes, radius and trace.
func FuzzRequestDecoder(f *testing.F) {
	for _, seed := range []struct {
		kind, shape uint8
		body        string
	}{
		{0, 0, `{"point":[0.5,-1e-3,2]}`},
		{0, 0, ` {"trace":true, "point": [1.5E+2, -0, 3.4028235e38] ,"radius":1} `},
		{0, 0, `{"point":[1,2,3],"probes":-7}`},
		{0, 1, `{"points":[[1,2,3],[4,5,6]],"workers":3,"trace":false}`},
		{0, 1, `{"points":[[1,2,3]],"probes":2,"radius":0}x`},
		{0, 2, `{"points":[[0.1,0.2,0.3]]}`},
		{0, 2, `{"points":[[1e39,-1e-46,4.9e-324]]}`},
		{0, 2, `{"points":[[1,2,3]],"points":[[4,5,6]]}`},
		{1, 0, `{"point":[0,1,1,0]}`},
		{1, 1, `{"points":[[1,1,1,1],[0,0,0,0]],"workers":0}`},
		{1, 2, `{"points":[[1,0,-0,1]]}`},
		{1, 2, `{"Points":[[1,0,0,1]]}`},
	} {
		f.Add(seed.kind, seed.shape, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, kind, shape uint8, body []byte) {
		allowed := decodeShapes[int(shape)%len(decodeShapes)]
		fast, ref, ok, refErr := scanBoth(kind%2 == 1, allowed, body)
		if !ok {
			return
		}
		if refErr != nil {
			t.Fatalf("%q: the scanner accepts it, the fallback says %v", body, refErr)
		}
		if d := sameRequest(fast, ref); d != "" {
			t.Fatalf("%q: scanner vs fallback: %s", body, d)
		}
	})
}

// TestScannerAccepts: canonical bodies take the one-pass path — the
// benchmark's spelling, whitespace anywhere JSON allows it, every
// declared key, trailing bytes — and decode as the fallback does.
func TestScannerAccepts(t *testing.T) {
	for _, tc := range []struct {
		hamming bool
		allowed fields
		body    string
	}{
		{false, queryFields, `{"point":[0.5,-0.001,2]}`},
		{false, queryFields, "\t{ \"point\" :\n[ 1.5E+2 , -0 , 3.4028235e38 ]\r, \"probes\": 4, \"radius\": 0, \"trace\": true } trailing"},
		{false, batchFields, `{"points":[[0.1,0.2,0.3],[1,2,3]],"workers":-2,"trace":false}`},
		{false, batchFields, `{"trace":true,"workers":9223372036854775807,"points":[[1e-46,1e39,0.30000001]]}`},
		{false, appendFields, `{"points":[[0,0,0]]}`},
		{true, queryFields, `{"point":[0,1,1,0],"radius":2}`},
		{true, batchFields, `{"points":[[1,1,1,1], [0,0,0,0]]}`},
		{true, appendFields, `{"points":[ [ 1 , 0 , 0 , 1 ] ]}`},
	} {
		fast, ref, ok, refErr := scanBoth(tc.hamming, tc.allowed, []byte(tc.body))
		if !ok {
			t.Errorf("%q declined, want it scanned", tc.body)
			continue
		}
		if refErr != nil {
			t.Errorf("%q: fallback says %v", tc.body, refErr)
		}
		if d := sameRequest(fast, ref); d != "" {
			t.Errorf("%q: scanner vs fallback: %s", tc.body, d)
		}
	}
}

// TestScannerDeclines: one body per quirk the scanner leaves to the
// fallback. Some of them the fallback accepts (encoding/json folds case,
// unescapes keys, lets the last duplicate win, reads null as "absent"
// or 0, takes -0 as a bit); the rest it answers with its 400 text.
func TestScannerDeclines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hamming bool
		allowed fields
		body    string
	}{
		{"escaped key", false, queryFields, `{"\u0070oint":[1,2,3]}`},
		{"case-folded key", false, queryFields, `{"Point":[1,2,3]}`},
		{"Kelvin sign folds to k", false, batchFields, "{\"points\":[[1,2,3]],\"worKers\":2}"},
		{"duplicate key", false, appendFields, `{"points":[[1,2,3]],"points":[[4,5,6]]}`},
		{"null point", false, queryFields, `{"point":null}`},
		{"null element", false, queryFields, `{"point":[1,null,3]}`},
		{"null option", false, batchFields, `{"points":[[1,2,3]],"probes":null}`},
		{"null bit", true, queryFields, `{"point":[0,1,null,1]}`},
		{"-0 as a bit", true, appendFields, `{"points":[[0,1,-0,1]]}`},
		{"1.0 as a bit", true, queryFields, `{"point":[0,1,1.0,1]}`},
		{"too few dims", false, queryFields, `{"point":[1,2]}`},
		{"too many dims", false, batchFields, `{"points":[[1,2,3,4]]}`},
		{"too few bits", true, queryFields, `{"point":[0,1,1]}`},
		{"float64 overflow", false, queryFields, `{"point":[1,2,1e400]}`},
		{"int overflow", false, batchFields, `{"points":[[1,2,3]],"workers":9223372036854775808}`},
		{"fractional option", false, queryFields, `{"point":[1,2,3],"probes":1.5}`},
		{"unknown key", false, queryFields, `{"point":[1,2,3],"k":1}`},
		{"key of another endpoint", false, appendFields, `{"points":[[1,2,3]],"trace":true}`},
		{"no point", false, queryFields, `{"trace":true}`},
		{"no points", false, batchFields, `{"points":[]}`},
		{"empty object", false, appendFields, `{}`},
		{"empty body", false, queryFields, ``},
		{"not an object", false, queryFields, `[1,2,3]`},
		{"leading zero", false, queryFields, `{"point":[01,2,3]}`},
		{"bare dot", false, queryFields, `{"point":[1.,2,3]}`},
		{"string element", false, queryFields, `{"point":["1",2,3]}`},
		{"trailing comma", false, batchFields, `{"points":[[1,2,3]],}`},
		{"cut off", false, batchFields, `{"points":[[1,2,3]]`},
	} {
		if _, _, ok, _ := scanBoth(tc.hamming, tc.allowed, []byte(tc.body)); ok {
			t.Errorf("%s: %q scanned, want it declined to the fallback", tc.name, tc.body)
		}
	}
}

// TestBodyCapCountsEveryByte: the -maxbody cap covers the whole body, not
// just its first JSON value. A valid request padded to exactly MaxBody
// bytes is answered (the padding ignored, as ever); one more byte is a
// 413 on every endpoint, with the length stated or not, and a refused
// /append adds nothing.
func TestBodyCapCountsEveryByte(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBody = 512
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	p, err := json.Marshal(toFloats(seedDense(1, cfg.Dim, cfg.Seed)[0]))
	if err != nil {
		t.Fatal(err)
	}
	pad := func(v string, n int) string { return v + strings.Repeat("x", n-len(v)) }
	for _, tc := range []struct {
		path, value string
	}{
		{"/query", `{"point":` + string(p) + `}`},
		{"/batch", `{"points":[` + string(p) + `]}`},
		{"/append", `{"points":[` + string(p) + `]}`},
	} {
		for _, n := range []int{int(cfg.MaxBody), int(cfg.MaxBody) + 1} {
			for _, stated := range []bool{true, false} {
				body := pad(tc.value, n)
				live := s.topo().Live
				post := postRaw
				if !stated {
					post = postUnstated
				}
				rec := post(h, tc.path, []byte(body))
				want := http.StatusOK
				if n > int(cfg.MaxBody) {
					want = http.StatusRequestEntityTooLarge
				}
				if rec.Code != want {
					t.Fatalf("%s, %d bytes (length stated %v): status %d, want %d: %s", tc.path, n, stated, rec.Code, want, rec.Body.Bytes())
				}
				grew := s.topo().Live - live
				if tc.path == "/append" && want == http.StatusOK && grew != 1 {
					t.Fatalf("/append of %d bytes added %d points, want 1", n, grew)
				}
				if want != http.StatusOK && grew != 0 {
					t.Fatalf("%s of %d bytes was refused but added %d points", tc.path, n, grew)
				}
			}
		}
	}
}

// postUnstated posts body with no Content-Length, as a chunked client does.
func postUnstated(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(bytes.NewReader(body)))
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// BenchmarkKernelDecodeBatch decodes the /batch body dense128-batch
// sends — 64 points of 128 float32s in AppendFloat(…, 'g', -1, 32)
// spelling — through the decode step the handlers used before the
// scanner (the envelope into []json.RawMessage, each point through
// parseDense) and through today's engine.decode + points.
func BenchmarkKernelDecodeBatch(b *testing.B) {
	const n, dim = 64, 128
	pts := seedDense(n, dim, 1)
	body := []byte(`{"points":[`)
	for i, p := range pts {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '[')
		for j, v := range p {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, float64(v), 'g', -1, 32)
		}
		body = append(body, ']')
	}
	body = append(body, `]}`...)

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req struct {
				Points  []json.RawMessage `json:"points"`
				Workers int               `json:"workers"`
				Probes  *int              `json:"probes"`
				Radius  *int              `json:"radius"`
				Trace   bool              `json:"trace"`
			}
			if err := decodeJSON(body, &req); err != nil {
				b.Fatal(err)
			}
			for _, raw := range req.Points {
				if _, err := parseDense(raw, dim); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		e := &engine[hybridlsh.Dense]{pointKind: denseKind, dim: dim}
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			req, err := e.decode(body, batchFields)
			if err != nil {
				b.Fatal(err)
			}
			if req.raw != nil {
				b.Fatal("the scanner declined the benchmark's body")
			}
			if _, err := e.points(req, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestScanAllocs: the scanner allocates once per point plus a constant
// (the growing points slice), never per number.
func TestScanAllocs(t *testing.T) {
	const n, dim = 64, 128
	var sb strings.Builder
	sb.WriteString(`{"points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('[')
		for j := 0; j < dim; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(float64(float32(i*dim+j)/7), 'g', -1, 32))
		}
		sb.WriteByte(']')
	}
	sb.WriteString(`],"workers":2}`)
	body := []byte(sb.String())
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := scan(body, batchFields, dim, scanDense); !ok {
			t.Fatal("declined")
		}
	})
	if allocs > n+10 {
		t.Fatalf("%v allocations for %d points, want at most one per point plus 10", allocs, n)
	}
}
