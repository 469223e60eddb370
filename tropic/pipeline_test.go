package tropic_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/tcloud"
	"repro/tropic"
)

// minimalPlatform starts a tiny logical-only platform with the given
// batching configuration.
func minimalPlatform(t *testing.T, batchMaxOps int) *tropic.Platform {
	t.Helper()
	p, err := tropic.New(tropic.Config{
		Schema:      tcloud.NewSchema(),
		Procedures:  tcloud.Procedures(),
		Bootstrap:   tcloud.Topology{ComputeHosts: 4}.BuildModel(),
		Controllers: 1,
		BatchMaxOps: batchMaxOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	return p
}

// TestPipelineConfigDefaults: zero-valued batching knobs resolve to the
// documented defaults, and they surface through PipelineInfo.
func TestPipelineConfigDefaults(t *testing.T) {
	p := minimalPlatform(t, 0)
	info := p.PipelineInfo()
	if info.BatchMaxOps != 32 {
		t.Fatalf("BatchMaxOps = %d, want default 32", info.BatchMaxOps)
	}
	if info.BatchMaxDelayMs != 2 {
		t.Fatalf("BatchMaxDelayMs = %v, want 2", info.BatchMaxDelayMs)
	}
	if info.WorkerClaimBatch != 4 {
		t.Fatalf("WorkerClaimBatch = %d, want 4 (batched default)", info.WorkerClaimBatch)
	}

	unbatched := minimalPlatform(t, 1)
	info = unbatched.PipelineInfo()
	if info.BatchMaxOps != 1 || info.WorkerClaimBatch != 1 {
		t.Fatalf("unbatched info = %+v, want BatchMaxOps=1 WorkerClaimBatch=1", info)
	}
}

// TestBatchedSubmitLifecycle: the group-committed submission path (one
// atomic record+notice commit, client-generated ids) produces distinct
// ids under concurrency and every transaction reaches committed.
func TestBatchedSubmitLifecycle(t *testing.T) {
	p := minimalPlatform(t, 32)
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const n = 8
	ids := make(chan string, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			id, err := cli.Submit(tcloud.ProcSpawnVM,
				tcloud.StorageHostPath(i%1), tcloud.ComputeHostPath(i%4),
				fmt.Sprintf("bvm%d", i), "1024")
			if err != nil {
				errs <- err
				return
			}
			ids <- id
		}()
	}
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case id := <-ids:
			if seen[id] {
				t.Fatalf("duplicate transaction id %q", id)
			}
			seen[id] = true
		}
	}
	for id := range seen {
		rec, err := cli.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != tropic.StateCommitted {
			t.Fatalf("txn %s: %s (%s)", id, rec.State, rec.Error)
		}
		if rec.ID != id {
			t.Fatalf("record id %q != submitted id %q", rec.ID, id)
		}
	}
	// Depth gauges drain to zero once everything committed.
	depths := p.QueueDepths()
	if depths.InQ != 0 || depths.PhyQ != 0 || depths.TodoQ != 0 {
		t.Fatalf("queue depths after drain = %+v", depths)
	}
}

// TestUnbatchedSubmitStillWorks pins the batch-of-one pipeline that the
// ablation benchmarks depend on: BatchMaxOps=1 runs the same staged
// rounds as the batched default, each draining exactly one item.
func TestUnbatchedSubmitStillWorks(t *testing.T) {
	p := minimalPlatform(t, 1)
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rec, err := cli.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "uvm", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateCommitted {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}
	if st := p.ControllerStats(); st.InBatches == 0 || st.MaxInBatch != 1 || st.InBatchItems != st.InBatches {
		t.Fatalf("batch-of-one platform drained %d items in %d rounds (max %d per round), want one per round",
			st.InBatchItems, st.InBatches, st.MaxInBatch)
	}
}
