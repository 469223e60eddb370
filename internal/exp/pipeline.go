package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/workload"
	"repro/tcloud"
	"repro/tropic"
)

// PipelineParams drives the batched-pipeline throughput experiment: the
// submit→schedule→execute hot path under concurrent load, with the
// group-commit batch size as the ablation axis.
type PipelineParams struct {
	// Hosts sizes the logical-only topology (default 64; each host has
	// 8 VM slots, bounding Txns).
	Hosts int
	// Txns is how many spawnVM transactions to push through (default
	// 256).
	Txns int
	// Inflight bounds submission concurrency (default 128) — the many-
	// clients regime where group commit pays.
	Inflight int
	// CommitLatency simulates one store quorum round (default 200µs),
	// reproducing the store-I/O-bound regime of the paper's §6.1.
	CommitLatency time.Duration
	// BatchMaxOps is the pipeline batch size under test: 1 runs every
	// controller round as a batch of one, >1 groups up to that many.
	BatchMaxOps int
	// BatchMaxDelay bounds asynchronous flush latency (default 2ms).
	BatchMaxDelay time.Duration
	// WorkerClaimBatch is the per-thread phyQ claim size (default:
	// BatchMaxOps/4, min 1, so claims scale with the ablation axis).
	WorkerClaimBatch int
}

func (p PipelineParams) withDefaults() PipelineParams {
	if p.Hosts <= 0 {
		p.Hosts = 64
	}
	if p.Txns <= 0 {
		p.Txns = 256
	}
	if p.Inflight <= 0 {
		p.Inflight = 128
	}
	if p.CommitLatency == 0 {
		p.CommitLatency = 200 * time.Microsecond
	}
	if p.BatchMaxOps <= 0 {
		p.BatchMaxOps = 1
	}
	if p.WorkerClaimBatch <= 0 {
		p.WorkerClaimBatch = p.BatchMaxOps / 4
		if p.WorkerClaimBatch < 1 {
			p.WorkerClaimBatch = 1
		}
	}
	return p
}

// PipelineResult reports one pipeline run.
type PipelineResult struct {
	// BatchMaxOps echoes the batch size under test.
	BatchMaxOps int `json:"batchMaxOps"`
	// Txns and Committed count submitted and committed transactions.
	Txns      int `json:"txns"`
	Committed int `json:"committed"`
	// Elapsed is the wall time from first submission to last commit.
	Elapsed time.Duration `json:"elapsedNanos"`
	// PerSecond is committed transactions per second — the Figure 4/5
	// companion number the batching refactor moves.
	PerSecond float64 `json:"perSecond"`
	// MeanLatencyMs and P99LatencyMs are per-transaction submit→terminal
	// latencies, showing batching does not trade throughput for latency
	// beyond the BatchMaxDelay bound.
	MeanLatencyMs float64 `json:"meanLatencyMs"`
	P99LatencyMs  float64 `json:"p99LatencyMs"`
	// InBatches/InBatchItems/MaxInBatch: achieved event-batch sizes.
	InBatches    int64 `json:"inBatches"`
	InBatchItems int64 `json:"inBatchItems"`
	MaxInBatch   int64 `json:"maxInBatch"`
	// Flushes/FlushedOps/MaxFlushOps/MeanFlushMs: grouped-commit shape.
	Flushes     int64   `json:"flushes"`
	FlushedOps  int64   `json:"flushedOps"`
	MaxFlushOps int64   `json:"maxFlushOps"`
	MeanFlushMs float64 `json:"meanFlushMs"`
	// StoreCommits counts ensemble commit rounds consumed by the run —
	// the round trips batching exists to amortize.
	StoreCommits int64 `json:"storeCommits"`
}

// Pipeline measures end-to-end committed throughput of the
// submit→schedule→execute pipeline at the given batch size. Both the
// batched and unbatched paths run the same code with one config knob, so
// a pair of runs is the group-commit ablation.
func Pipeline(ctx context.Context, p PipelineParams) (PipelineResult, error) {
	p = p.withDefaults()
	if p.Txns > p.Hosts*8 {
		return PipelineResult{}, fmt.Errorf("pipeline: %d txns exceed %d VM slots", p.Txns, p.Hosts*8)
	}
	env, err := Start(ctx, PlatformParams{
		Topology:    tcloud.Topology{ComputeHosts: p.Hosts},
		LogicalOnly: true,
		// Saturating the commit pipeline queues sessions behind the
		// simulated quorum rounds; a failure-detection interval sized for
		// experiments (150ms) would read that backlog as a crash. Use a
		// production-scale timeout so the run measures throughput, not
		// failover.
		SessionTimeout:   2 * time.Second,
		CommitLatency:    p.CommitLatency,
		BatchMaxOps:      p.BatchMaxOps,
		BatchMaxDelay:    p.BatchMaxDelay,
		WorkerClaimBatch: p.WorkerClaimBatch,
	})
	if err != nil {
		return PipelineResult{}, err
	}
	defer env.Stop()

	ops := spawnOps(p.Hosts, p.Txns)
	baseCommits := env.Platform.Ensemble().Commits()
	start := time.Now()
	lat, states, err := runOps(ctx, env.Platform, ops, p.Inflight)
	if err != nil {
		return PipelineResult{}, err
	}
	elapsed := time.Since(start)

	st := env.Platform.ControllerStats()
	res := PipelineResult{
		BatchMaxOps:  p.BatchMaxOps,
		Txns:         p.Txns,
		Committed:    states[tropic.StateCommitted],
		Elapsed:      elapsed,
		PerSecond:    float64(states[tropic.StateCommitted]) / elapsed.Seconds(),
		InBatches:    st.InBatches,
		InBatchItems: st.InBatchItems,
		MaxInBatch:   st.MaxInBatch,
		Flushes:      st.Flushes,
		FlushedOps:   st.FlushedOps,
		MaxFlushOps:  st.MaxFlushOps,
		StoreCommits: env.Platform.Ensemble().Commits() - baseCommits,
	}
	res.MeanLatencyMs = lat.Mean() * 1000
	res.P99LatencyMs = lat.Quantile(0.99) * 1000
	if st.Flushes > 0 {
		res.MeanFlushMs = float64(st.FlushNanos) / float64(st.Flushes) / 1e6
	}
	return res, nil
}

// spawnOps builds n spawnVM submissions spread round-robin over the
// hosts, each VM named uniquely so no two transactions conflict.
func spawnOps(hosts, n int) []workload.Op {
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		host := i % hosts
		ops = append(ops, workload.Op{
			Proc: tcloud.ProcSpawnVM,
			Args: []string{
				tcloud.StorageHostPath(host / 4),
				tcloud.ComputeHostPath(host),
				fmt.Sprintf("plvm%06d", i),
				"1024",
			},
		})
	}
	return ops
}
