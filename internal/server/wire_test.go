package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"

	hybridlsh "repro"
	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/rng"
)

// updateWire rewrites testdata/wire-*.json from encoding/json — what
// writeJSON sent for a 200 before the append encoder existed — never from
// the encoder under test.
var updateWire = flag.Bool("update-wire", false, "rewrite the wire goldens from encoding/json")

// boundaryIDs covers every decimal digit-count boundary of an int32.
func boundaryIDs() []int32 {
	ids := []int32{0, math.MaxInt32, -1, math.MinInt32}
	for p := int32(10); ; p *= 10 {
		ids = append(ids, p-1, p)
		if p == 1_000_000_000 {
			return ids
		}
	}
}

func intp(v int) *int { return &v }

// wireFixtures are answers with every timing fixed, one per shape the
// handlers produce.
func wireFixtures() map[string]*QueryResult {
	trace := &obs.QueryTrace{
		Strategy: "mixed", LSHShards: 1, LinearShards: 1,
		Collisions: 40213, EstCandidates: 1834.5625, Candidates: 35353, Results: 7,
		Alpha: 1, Beta: 10.5, Probes: intp(12),
		EstimateUS: 35.25, SearchUS: 1e-7, MaxShardUS: 812.004, WallUS: 1234,
		Shards: []obs.ShardTrace{
			{Shard: 0, Strategy: "lsh", Collisions: 40213, HLLMerged: true, EstCandidates: 1834.5625,
				Candidates: 1833, Results: 4, LSHCost: 58543.625, LinearCost: 335200, EstimateUS: 35.25, SearchUS: 90.5},
			{Shard: 1, Strategy: "linear", Candidates: 33520, Results: 3, LSHCost: 1e21, LinearCost: 335200, SearchUS: 812.004},
		},
	}
	classic := func() *QueryResult {
		return &QueryResult{IDs: boundaryIDs(), LSHShards: 3, LinearShards: 1, Collisions: 40213, Candidates: 1833, WallUS: 1234}
	}
	traced, probed, covered, cached := classic(), classic(), classic(), classic()
	traced.Probes, traced.Trace = intp(12), trace
	probed.Probes = intp(40)
	covered.Radius = intp(0)
	cached.Cached, cached.WallUS = true, 0.5
	return map[string]*QueryResult{
		"classic":    classic(),
		"trace":      traced,
		"multiprobe": probed,
		"covering":   covered,
		"cached":     cached,
		"empty":      {IDs: []int32{}, LinearShards: 4, Candidates: 67040, WallUS: 1e6},
	}
}

// encodeReference is the wire form encoding/json gives v, trailing
// newline included: the bytes the append encoder must reproduce.
func encodeReference(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkWireGolden(t *testing.T, name string, reference []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	path := filepath.Join("testdata", "wire-"+name+".json")
	if *updateWire {
		if err := os.WriteFile(path, reference, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-wire to write it)", err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("%s: status %d, Content-Type %q", name, rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("%s: wire bytes differ from %s\n got: %s\nwant: %s", name, path, got, want)
	}
}

// TestWireGoldens pins the bytes of a 200 from /query and /batch.
func TestWireGoldens(t *testing.T) {
	fx := wireFixtures()
	for name, res := range fx {
		rec := httptest.NewRecorder()
		writeResult(rec, res)
		checkWireGolden(t, "query-"+name, encodeReference(t, res), rec)
	}
	batch := []*QueryResult{fx["classic"], fx["empty"], fx["trace"]}
	rec := httptest.NewRecorder()
	writeResults(rec, batch)
	checkWireGolden(t, "batch", encodeReference(t, map[string]any{"results": batch}), rec)
}

// TestAppendResultMatchesEncodingJSON is the differential property: for
// random id arrays drawn around every digit-count boundary, and every
// fixture's other fields, the append encoder and encoding/json agree
// byte for byte.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	r := rng.New(20)
	bounds := boundaryIDs()
	for name, res := range wireFixtures() {
		for round := 0; round < 50; round++ {
			n := r.Intn(40)
			res.IDs = make([]int32, n)
			for i := range res.IDs {
				switch b := bounds[r.Intn(len(bounds))]; r.Intn(3) {
				case 0:
					res.IDs[i] = b
				case 1:
					res.IDs[i] = int32(r.Intn(math.MaxInt32))
				default:
					res.IDs[i] = int32(r.Intn(int(max(b, 1)))) // b's digit count or one fewer
				}
			}
			checkAppendResult(t, name, res)
		}
	}
}

func checkAppendResult(t testing.TB, name string, res *QueryResult) {
	t.Helper()
	var ref bytes.Buffer
	refErr := json.NewEncoder(&ref).Encode(res)
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	buf.B = append(buf.B, "prefix"...) // the encoder appends, it never rewinds
	err := appendResult(buf, res)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: appendResult error %v, encoding/json error %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	if got, want := string(buf.B), "prefix"+ref.String(); got+"\n" != want {
		t.Fatalf("%s: appendResult differs from encoding/json\n got: %s\nwant: %s", name, got, want)
	}
}

// FuzzAppendResult drives the same comparison from raw bytes: the first
// bytes pick the scalar fields (any float64 bit pattern for wall_us, NaN
// and ±Inf included — both encoders must refuse those), the rest are ids.
func FuzzAppendResult(f *testing.F) {
	seed := make([]byte, 0, 64)
	seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(1234.5))
	seed = append(seed, 0b111, 12)
	for _, id := range boundaryIDs() {
		seed = binary.LittleEndian.AppendUint32(seed, uint32(id))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Fuzz(func(t *testing.T, data []byte) {
		res := &QueryResult{IDs: []int32{}}
		if len(data) >= 10 {
			res.WallUS = math.Float64frombits(binary.LittleEndian.Uint64(data))
			flags, n := data[8], int(data[9])
			res.Cached = flags&1 != 0
			if flags&2 != 0 {
				res.Probes = &n
			}
			if flags&4 != 0 {
				res.Radius = &n
			}
			if flags&8 != 0 {
				res.Trace = &obs.QueryTrace{Strategy: "<lsh&>", WallUS: res.WallUS, Shards: []obs.ShardTrace{{Shard: n}}}
			}
			res.LSHShards, res.Collisions = n, -n
			data = data[10:]
		}
		for ; len(data) >= 4; data = data[4:] {
			res.IDs = append(res.IDs, int32(binary.LittleEndian.Uint32(data)))
		}
		checkAppendResult(t, "fuzz", res)
	})
}

// postRaw sends one request through h and returns the recorded answer.
func postRaw(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestContentLengthStated: the router sizes its relay buffer by the
// node's Content-Length, so 200 answers must state it, and state it right.
func TestContentLengthStated(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	q := toFloats(seedDense(cfg.N, cfg.Dim, cfg.Seed)[0])
	for _, tc := range []struct {
		path   string
		body   any
		status int
	}{
		{"/query", map[string]any{"point": q}, http.StatusOK},
		{"/query", map[string]any{"point": q, "trace": true}, http.StatusOK},
		{"/batch", map[string]any{"points": [][]float64{q, q, q}}, http.StatusOK},
		{"/query", map[string]any{"point": q[:3]}, http.StatusBadRequest},
		{"/batch", map[string]any{"points": [][]float64{}}, http.StatusBadRequest},
	} {
		body, _ := json.Marshal(tc.body)
		rec := postRaw(h, tc.path, body)
		if rec.Code != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.path, body, rec.Code, tc.status)
		}
		cl := rec.Header().Get("Content-Length")
		if cl == "" && tc.status != http.StatusOK {
			continue // error answers may leave it to net/http
		}
		if n, err := strconv.Atoi(cl); err != nil || n != rec.Body.Len() {
			t.Errorf("%s -> %d: Content-Length %q, body is %d bytes", tc.path, rec.Code, cl, rec.Body.Len())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s -> %d: body is not JSON: %.80s", tc.path, rec.Code, rec.Body.Bytes())
		}
	}
}

// nullWriter is a ResponseWriter that keeps nothing, so the allocation
// ceiling below counts the handler and not a recorder's body buffer.
type nullWriter struct {
	h    http.Header
	n    int
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestQueryAllocCeiling bounds the allocations of one 15 000-id /query
// through Handler(): request decode, fan-out, merge and the encoder. The
// same loop read 51 while writeJSON encoded the answer and reads 53 now.
// encoding/json spent CPU on the id array, not allocations — it pools its
// buffer too — and the two more are the Content-Length header's slice and
// digits. What the ceiling guards is the pooling: an answer built in a
// fresh buffer costs some thirty regrowths.
func TestQueryAllocCeiling(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates")
	}
	const ceiling = 54
	cfg := testConfig()
	cfg.N, cfg.Dim, cfg.Shards, cfg.Radius = 15000, 4, 2, 100 // every point is within r
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body, _ := json.Marshal(map[string]any{"point": toFloats(hybridlsh.Dense{0.5, 0.5, 0.5, 0.5})})
	w := &nullWriter{h: http.Header{}}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", rd)
	serve := func() {
		rd.Reset(body) // req.Body wraps rd; the handler works on a copy of req
		clear(w.h)
		w.n = 0
		h.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK || w.n < 15000*2 {
		t.Fatalf("status %d, %d body bytes: the answer does not carry 15 000 ids", w.code, w.n)
	}
	if got := testing.AllocsPerRun(50, serve); got > ceiling {
		t.Errorf("%.0f allocations per 15 000-id /query, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.0f allocations per 15 000-id /query (ceiling %d)", got, ceiling)
	}
}

// raceBuild reports whether the test binary was built with -race, whose
// instrumentation allocates on its own and voids an allocation ceiling.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
