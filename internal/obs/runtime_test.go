package obs

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRuntimeGauges holds the runtime families to runtime/metrics: after
// a forced GC the live heap and goal are above zero, the cycle count has
// moved, and the GC percent and memory limit read what the runtime has
// in force, GOGC=off's -1 included.
func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(123 << 20))
	runtime.GC()
	exp := parse(t, r)
	v := func(name string) float64 {
		x, ok := exp.Value(name, nil)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		return x
	}
	for _, name := range []string{"hybridlsh_go_heap_live_bytes", "hybridlsh_go_heap_goal_bytes", "hybridlsh_go_gc_cycles_total"} {
		if x := v(name); x <= 0 {
			t.Errorf("%s = %v after a GC, want > 0", name, x)
		}
	}
	if x := v("hybridlsh_go_gc_percent"); x != -1 {
		t.Errorf("hybridlsh_go_gc_percent = %v with the GC off, want -1", x)
	}
	if x := v("hybridlsh_go_memory_limit_bytes"); x != 123<<20 {
		t.Errorf("hybridlsh_go_memory_limit_bytes = %v, want %d", x, 123<<20)
	}
	if x := v("hybridlsh_go_gc_cpu_seconds_total"); x < 0 {
		t.Errorf("hybridlsh_go_gc_cpu_seconds_total = %v", x)
	}
}
