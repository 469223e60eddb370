package exp

import (
	"context"
	"testing"
	"time"
)

// TestPipelineSmoke runs a miniature pipeline point at both ends of the
// ablation axis: everything commits, the batched run records grouped
// flushes, and flush latency stays under the BatchMaxDelay ceiling.
func TestPipelineSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, batch := range []int{1, 8} {
		res, err := Pipeline(ctx, PipelineParams{
			Hosts: 8, Txns: 32, Inflight: 16, BatchMaxOps: batch,
			CommitLatency: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != 32 {
			t.Fatalf("batch=%d: committed %d of 32", batch, res.Committed)
		}
		if res.PerSecond <= 0 || res.StoreCommits <= 0 {
			t.Fatalf("batch=%d: degenerate result %+v", batch, res)
		}
		if batch == 1 && (res.InBatches == 0 || res.MaxInBatch != 1 || res.InBatchItems != res.InBatches) {
			t.Fatalf("batch-of-one run drained %d items in %d rounds (max %d per round), want one per round",
				res.InBatchItems, res.InBatches, res.MaxInBatch)
		}
		if batch > 1 {
			if res.Flushes == 0 || res.InBatches == 0 {
				t.Fatalf("batched run recorded no grouped activity: %+v", res)
			}
			if res.MeanFlushMs > 2 {
				t.Fatalf("mean flush %.2fms exceeds the 2ms BatchMaxDelay ceiling", res.MeanFlushMs)
			}
		}
	}
}
