package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// seedDriftArms plants deterministic evidence in the server's drift
// windows: n answers per strategy arm at the given nanoseconds per cost
// unit. Forcing a refit over HTTP is otherwise at the mercy of which
// strategies the workload happens to pick.
func seedDriftArms(s *Server, n int, lshNPC, linNPC float64) {
	for i := 0; i < n; i++ {
		s.metrics.Drift.Record(core.QueryStats{
			Strategy: core.StrategyLSH, LSHCost: 1000, LinearCost: 1000,
			SearchTime: time.Duration(1000 * lshNPC),
		})
		s.metrics.Drift.Record(core.QueryStats{
			Strategy: core.StrategyLinear, LSHCost: 1000, LinearCost: 1000,
			SearchTime: time.Duration(1000 * linNPC),
		})
	}
}

func TestRecalibrateEndpoint(t *testing.T) {
	cfg := testConfig() // -recalibrate defaults to auto
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No traffic yet: both windows are empty, so a forced refit must be
	// refused (409) rather than invent constants.
	post(t, ts.URL+"/recalibrate", nil, http.StatusConflict, nil)

	// With both arms observed at a 2:1 ns-per-cost-unit ratio, the refit
	// must adopt exactly α' = 2α, β' = β.
	seedDriftArms(s, 4, 2, 1)
	var res struct {
		Old struct {
			Alpha float64 `json:"alpha_ns"`
			Beta  float64 `json:"beta_ns"`
		} `json:"old"`
		New struct {
			Alpha float64 `json:"alpha_ns"`
			Beta  float64 `json:"beta_ns"`
		} `json:"new"`
		Refits int64 `json:"refits_total"`
	}
	post(t, ts.URL+"/recalibrate", nil, http.StatusOK, &res)
	if math.Abs(res.New.Alpha-2*res.Old.Alpha) > 1e-9*res.Old.Alpha || res.New.Beta != res.Old.Beta {
		t.Fatalf("refit old (%v, %v) -> new (%v, %v), want alpha doubled, beta unchanged",
			res.Old.Alpha, res.Old.Beta, res.New.Alpha, res.New.Beta)
	}
	if res.Refits != 1 {
		t.Fatalf("refits_total = %d, want 1", res.Refits)
	}

	// The adopted model must be live on the serving store and visible in
	// the /stats recalibration block.
	if got := s.be.store().Cost().Alpha; math.Abs(got-res.New.Alpha) > 1e-9*res.New.Alpha {
		t.Fatalf("serving alpha = %v, want adopted %v", got, res.New.Alpha)
	}
	var st struct {
		Recal struct {
			Enabled    bool    `json:"enabled"`
			DeadBand   float64 `json:"dead_band"`
			MinSamples int64   `json:"min_samples"`
			Refits     int64   `json:"refits_total"`
		} `json:"recalibration"`
	}
	get(t, ts.URL+"/stats", &st)
	if !st.Recal.Enabled || st.Recal.Refits != 1 || st.Recal.DeadBand <= 0 || st.Recal.MinSamples <= 0 {
		t.Fatalf("stats recalibration block = %+v", st.Recal)
	}

	// The windows were denominated in the old constants: the refit must
	// have reset them, so an immediate second force has no evidence.
	post(t, ts.URL+"/recalibrate", nil, http.StatusConflict, nil)
}

func TestRecalibrateDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Recalibrate = "off"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seedDriftArms(s, 4, 2, 1)
	post(t, ts.URL+"/recalibrate", nil, http.StatusBadRequest, nil)
	var st struct {
		Recal struct {
			Enabled bool `json:"enabled"`
		} `json:"recalibration"`
	}
	get(t, ts.URL+"/stats", &st)
	if st.Recal.Enabled {
		t.Fatal("stats reports recalibration enabled under -recalibrate=off")
	}
}

func TestCacheOverHTTP(t *testing.T) {
	cfg := testConfig()
	cfg.CacheSize = 64
	ts := startServer(t, cfg)
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)
	q := map[string]any{"point": toFloats(points[3])}

	var first, second QueryResult
	post(t, ts.URL+"/query", q, http.StatusOK, &first)
	post(t, ts.URL+"/query", q, http.StatusOK, &second)
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	if !second.Cached {
		t.Fatal("repeat query not served from the cache")
	}
	if !slices.Equal(sortedIDs(second.IDs), sortedIDs(first.IDs)) {
		t.Fatalf("cached ids %v != uncached ids %v", second.IDs, first.IDs)
	}

	// Appending the query point itself must invalidate the entry and the
	// fresh answer must contain the new id — a stale hit would miss it.
	var app struct {
		IDs []int32 `json:"ids"`
	}
	post(t, ts.URL+"/append", map[string]any{"points": [][]float64{toFloats(points[3])}}, http.StatusOK, &app)
	if len(app.IDs) != 1 {
		t.Fatalf("append assigned ids %v, want exactly one", app.IDs)
	}
	newID := app.IDs[0]
	var third QueryResult
	post(t, ts.URL+"/query", q, http.StatusOK, &third)
	if third.Cached {
		t.Fatal("query after append still served from the cache")
	}
	if !slices.Contains(third.IDs, newID) {
		t.Fatalf("answer after append misses the appended id %d: %v", newID, third.IDs)
	}

	// Deleting it must invalidate again; the tombstone must never
	// resurface, cached or not.
	post(t, ts.URL+"/delete", map[string]any{"ids": []int32{newID}}, http.StatusOK, nil)
	var fourth, fifth QueryResult
	post(t, ts.URL+"/query", q, http.StatusOK, &fourth)
	post(t, ts.URL+"/query", q, http.StatusOK, &fifth)
	if fourth.Cached {
		t.Fatal("query after delete still served from the cache")
	}
	if !fifth.Cached {
		t.Fatal("second query after delete not cached")
	}
	for name, r := range map[string]QueryResult{"uncached": fourth, "cached": fifth} {
		if slices.Contains(r.IDs, newID) {
			t.Fatalf("%s answer resurrected deleted id %d: %v", name, newID, r.IDs)
		}
	}

	var st struct {
		Cache struct {
			Enabled       bool  `json:"enabled"`
			Capacity      int   `json:"capacity"`
			Entries       int   `json:"entries"`
			Hits          int64 `json:"hits"`
			Misses        int64 `json:"misses"`
			Invalidations int64 `json:"invalidations"`
		} `json:"cache"`
	}
	get(t, ts.URL+"/stats", &st)
	c := st.Cache
	if !c.Enabled || c.Capacity != 64 {
		t.Fatalf("stats cache block = %+v", c)
	}
	if c.Hits < 2 || c.Misses < 3 || c.Invalidations < 2 || c.Entries < 1 {
		t.Fatalf("stats cache counters = %+v, want >= 2 hits, >= 3 misses, >= 2 invalidations", c)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	ts := startServer(t, testConfig()) // -cache defaults to 0
	points := seedDense(12, testConfig().Dim, testConfig().Seed)
	q := map[string]any{"point": toFloats(points[0])}
	var first, second QueryResult
	post(t, ts.URL+"/query", q, http.StatusOK, &first)
	post(t, ts.URL+"/query", q, http.StatusOK, &second)
	if first.Cached || second.Cached {
		t.Fatal("query reported cached with the cache disabled")
	}
	var st struct {
		Cache struct {
			Enabled bool `json:"enabled"`
		} `json:"cache"`
	}
	get(t, ts.URL+"/stats", &st)
	if st.Cache.Enabled {
		t.Fatal("stats reports cache enabled under -cache 0")
	}
}
