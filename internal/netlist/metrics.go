package netlist

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Metrics is the shared sink for partitioning activity. All fields may
// be nil (updates no-op).
type Metrics struct {
	// CutWeight is the summed hint edge weight cut by the most recent
	// sharded placement, truncated to an integer.
	CutWeight *metrics.Gauge
}

// defaultNetlistMetrics is loaded by Build; atomic so enabling can race
// concurrent builds in tests.
var defaultNetlistMetrics atomic.Pointer[Metrics]

// EnableMetrics registers the partitioning family on r and makes every
// subsequent Build publish into it. A nil registry disables publication.
func EnableMetrics(r *metrics.Registry) {
	if r == nil {
		defaultNetlistMetrics.Store(nil)
		return
	}
	defaultNetlistMetrics.Store(&Metrics{
		CutWeight: r.Gauge("netlist_cut_weight", "Summed edge weight cut by the most recent sharded placement."),
	})
}
