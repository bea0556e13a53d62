package core

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Bridge traffic instrumentation. The per-op SmartFIFO paths stay
// untouched — crossing counters are bumped only on the exchange paths
// (stageOutboxLocked / deliverFreesLocked), which already hold the
// mailbox lock and move whole batches, so the cost is one add per
// FLUSH, not per word. They feed the shared metrics (BridgeMetrics):
// process-wide totals and the flush-batch-size histogram, for the
// /metrics scrape.

// BridgeMetrics is the shared sink for cross-shard traffic. All fields
// may be nil (updates no-op).
type BridgeMetrics struct {
	// WordsCrossed counts payload words staged across a shard
	// boundary; CreditReturns counts freed-cell credits delivered back.
	WordsCrossed  *metrics.Counter
	CreditReturns *metrics.Counter
	// FlushBatchWords is the distribution of words per writer-side
	// staging flush — the batching the temporal decoupling buys.
	FlushBatchWords *metrics.Histogram
}

// defaultBridgeMetrics is captured by NewSharded; atomic so enabling
// can race bridge construction in tests.
var defaultBridgeMetrics atomic.Pointer[BridgeMetrics]

// EnableBridgeMetrics registers the bridge traffic family on r and
// makes every subsequently created ShardedFIFO publish into it. A nil
// registry disables publication for new bridges.
func EnableBridgeMetrics(r *metrics.Registry) {
	if r == nil {
		defaultBridgeMetrics.Store(nil)
		return
	}
	defaultBridgeMetrics.Store(&BridgeMetrics{
		WordsCrossed:  r.Counter("core_bridge_words_total", "Payload words staged across shard boundaries (all bridges)."),
		CreditReturns: r.Counter("core_bridge_credits_total", "Freed-cell credits returned across shard boundaries (all bridges)."),
		FlushBatchWords: r.Histogram("core_bridge_flush_batch_words", "Words per writer-side staging flush.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
	})
}
