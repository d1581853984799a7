package obs

import (
	"runtime/metrics"
	"sync"
)

// RegisterRuntime exposes the Go runtime's heap and GC state, read from
// runtime/metrics once per scrape: the live heap and the GC goal sized
// from it, the GC percent and soft memory limit in force, and the
// cumulative GC cycles and GC CPU seconds. Next to
// hybridlsh_index_bytes they say how much of a node's memory is the
// index and how much is headroom, and what the headroom costs.
func RegisterRuntime(r *Registry) {
	var mu sync.Mutex
	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/gogc:percent"},
		{Name: "/gc/gomemlimit:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	r.OnScrape(func() {
		mu.Lock()
		metrics.Read(samples)
		mu.Unlock()
	})
	read := func(i int) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			switch v := samples[i].Value; v.Kind() {
			case metrics.KindUint64:
				// Through int64, so that GOGC=off's 2⁶⁴−1 reads −1.
				return float64(int64(v.Uint64()))
			case metrics.KindFloat64:
				return v.Float64()
			}
			return 0
		}
	}
	r.NewGaugeFunc("hybridlsh_go_heap_live_bytes",
		"Heap bytes the last GC cycle marked live.", read(0))
	r.NewGaugeFunc("hybridlsh_go_heap_goal_bytes",
		"Heap size at which the runtime starts the next GC cycle.", read(1))
	r.NewGaugeFunc("hybridlsh_go_gc_percent",
		"GC percent in force (GOGC or debug.SetGCPercent; -1 when off).", read(2))
	r.NewGaugeFunc("hybridlsh_go_memory_limit_bytes",
		"Soft memory limit in force (GOMEMLIMIT or debug.SetMemoryLimit, which hybridserve's GC policy sets; 2^63-1 when unset).", read(3))
	r.NewCounterFunc("hybridlsh_go_gc_cycles_total",
		"Completed GC cycles.", read(4))
	r.NewCounterFunc("hybridlsh_go_gc_cpu_seconds_total",
		"Estimated CPU seconds spent in the GC, mark assists and pauses included.", read(5))
}
