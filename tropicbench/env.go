package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/device"
	"repro/tcloud"
	"repro/tropic"
)

// Stated injected delays. The store's quorum round and the simulated
// device calls are both time.Sleep calls, which on a Linux box cost at
// least about a millisecond however short the request, so no stated
// delay is below that floor.
const (
	quorumDelay = time.Millisecond
	actionDelay = 5 * time.Millisecond // tropicd's -action-latency default
)

// defaultCacheBytes is tropicd's -read-cache-bytes default.
const defaultCacheBytes = 32 << 20

// lanes is the number of submitter goroutines, each with its own client
// session. The load shape is sized for a 2-core machine and never uses
// more submitters than that, so it is fixed rather than taken from the
// machine's CPU count.
const lanes = 2

// spec describes the platform one workload runs on.
type spec struct {
	shards int
	// cloud selects the simulated device cloud (actionDelay per call)
	// instead of the logical-only NoopExecutor.
	cloud      bool
	topo       tcloud.Topology
	cacheBytes int64
	// population is how many spawned VMs the set-up commits before the
	// first timed operation (the records status reads).
	population int
	// pairEvery > 0 makes every pairEvery-th spawn group an affinity
	// pair on a one-shard host (see spawner).
	pairEvery int
}

// env is one running platform with the benchmark's wrappers around it.
type env struct {
	spec    spec
	pl      *tropic.Platform
	cloud   *device.Cloud
	dev     *deviceMeter
	procs   meter
	dir     string
	clients []*tropic.Client
	// pop holds the population's transaction ids and spawner continues
	// their host cycle, so later spawns keep spreading over the hosts.
	pop     []string
	seeded  []*sample
	spawner *spawner
}

// setup builds, starts and seeds a platform configured like tropicd's
// defaults (3 controllers × 3 store replicas, durable store with fsync
// on every round, group commit of 32, worker claim of 4, follower reads
// and the read cache on).
func setup(ctx context.Context, sp spec, work string, tr *tracer, sw *spawner) (*env, error) {
	dir, err := os.MkdirTemp(work, "data-")
	if err != nil {
		return nil, err
	}
	e := &env{spec: sp, dir: dir, spawner: sw}
	schema := tcloud.NewSchema()
	if tr != nil {
		traceConstraints(schema, tr)
	}
	cfg := tropic.Config{
		Schema:               schema,
		Procedures:           wrapProcedures(tcloud.Procedures(), &e.procs, tr),
		Controllers:          3,
		StoreReplicas:        3,
		SessionTimeout:       2 * time.Second,
		CommitLatency:        quorumDelay,
		DataDir:              dir,
		SyncPolicy:           tropic.SyncAlways,
		SnapshotEvery:        4096,
		BatchMaxOps:          32,
		BatchMaxDelay:        2 * time.Millisecond,
		WorkerClaimBatch:     4,
		Shards:               sp.shards,
		CrossShard:           tropic.CrossShardEnabled,
		XShardFastPath:       tropic.XShardFastPathEnabled,
		XShardPrepareTimeout: 10 * time.Second,
		FollowerReads:        true,
		ReadCacheBytes:       sp.cacheBytes,
	}
	if sp.cloud {
		cloud, err := sp.topo.BuildCloud()
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cloud.SetActionLatency(actionDelay)
		e.cloud = cloud
		cfg.Bootstrap = cloud.Snapshot()
		e.dev = newDevice(cloud, tr)
	} else {
		cfg.Bootstrap = sp.topo.BuildModel()
		e.dev = newDevice(tropic.NoopExecutor{}, tr)
	}
	cfg.Executor = e.dev
	pl, err := tropic.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := pl.Start(ctx); err != nil {
		pl.Stop()
		os.RemoveAll(dir)
		return nil, err
	}
	e.pl = pl
	for i := 0; i < lanes; i++ {
		e.clients = append(e.clients, pl.Client())
	}
	if sp.population > 0 {
		if err := e.seed(ctx); err != nil {
			e.stop()
			return nil, err
		}
	}
	return e, nil
}

// seed commits the population: spawns submitted through every lane's
// session with at most seedWindow outstanding. Each is kept as a sample
// (without timings) for the correctness gate.
func (e *env) seed(ctx context.Context) error {
	const seedWindow = 64
	e.pop = make([]string, e.spec.population)
	errs := make(chan error, len(e.pop)) // at most one per record
	sem := make(chan struct{}, seedWindow)
	var wg sync.WaitGroup
	for i := range e.pop {
		s := &sample{op: e.spawner.spawn(), lane: i % lanes}
		cli := e.clients[s.lane]
		sem <- struct{}{}
		id, err := cli.Submit(s.op.proc, s.op.args...)
		if err != nil {
			<-sem
			errs <- fmt.Errorf("seed submit: %w", err)
			break
		}
		s.id, e.pop[i] = id, id
		e.seeded = append(e.seeded, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			wctx, cancel := context.WithTimeout(ctx, waitTimeout)
			defer cancel()
			s.rec, s.err = cli.Wait(wctx, id)
			switch {
			case s.err != nil:
				errs <- fmt.Errorf("seed wait %s: %w", id, s.err)
			case s.rec.State != tropic.StateCommitted:
				errs <- fmt.Errorf("seed %s ended %s: %s", id, s.rec.State, s.rec.Error)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs // nil when no record failed
}

// stop closes the clients, stops the platform and deletes its data.
func (e *env) stop() error {
	for _, c := range e.clients {
		c.Close()
	}
	err := e.pl.Stop()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}
