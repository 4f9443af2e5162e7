package obs

import (
	"fmt"
	"testing"
)

// TestBoundedStores overfills each of the package's bounded in-memory stores
// to three times its cap: the cap holds, and what is gone is the oldest.
// Neither counts what it discards — a kept trace and a parked amendment are
// each a debugging aid whose loss changes no answer — so there is no drop
// counter to hold to the overflow here; the stores that have one are core's
// drift batch (TestDriftBatchBounded) and the WAL's segment retention
// (TestMaxSegmentsPrunes). The slow-query log is a view of the kept-trace
// ring, not a store (TestSlowQueryRowsResolve).
func TestBoundedStores(t *testing.T) {
	ResetTraces()
	t.Cleanup(ResetTraces)
	id := func(i int) string { return fmt.Sprintf("%032x", i+1) }

	for _, store := range []struct {
		name string
		cap  int
		add  func(i int)
		size func() int
		has  func(i int) bool
	}{{
		name: "kept-trace ring",
		cap:  maxKeptTraces,
		add:  func(i int) { traceKeep.add(TraceRecord{TraceID: id(i)}) },
		size: func() int { return len(KeptTraces()) },
		has:  func(i int) bool { _, ok := KeptTrace(id(i)); return ok },
	}, {
		name: "parked-amendment ring",
		cap:  maxParkedAmends,
		// IDs the kept ring above never held, so each amendment parks.
		add: func(i int) { AmendTrace("parked-"+id(i), SpanEvent{Name: "audit"}) },
		size: func() (n int) {
			for _, p := range traceKeep.parked {
				if p.id != "" {
					n++
				}
			}
			return n
		},
		has: func(i int) bool {
			for _, p := range traceKeep.parked {
				if p.id == "parked-"+id(i) {
					return true
				}
			}
			return false
		},
	}} {
		t.Run(store.name, func(t *testing.T) {
			for i := 0; i <= store.cap; i++ {
				store.add(i)
			}
			if store.size() != store.cap || store.has(0) || !store.has(1) {
				t.Fatalf("after cap+1 entries: size %d (cap %d), oldest present %v, second oldest present %v",
					store.size(), store.cap, store.has(0), store.has(1))
			}
			for i := store.cap + 1; i < 3*store.cap; i++ {
				store.add(i)
			}
			if store.size() != store.cap {
				t.Fatalf("after 3x the cap: size %d, cap %d", store.size(), store.cap)
			}
			for i := 0; i < 3*store.cap; i++ {
				if want := i >= 2*store.cap; store.has(i) != want {
					t.Fatalf("after 3x the cap: entry %d present = %v, want %v (the newest %d survive)", i, !want, want, store.cap)
				}
			}
		})
	}
}
