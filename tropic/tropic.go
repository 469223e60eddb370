// Package tropic is the public API of this TROPIC reproduction: a
// transactional resource orchestration platform for IaaS clouds (Liu,
// Mao, Chen, Fernández, Loo, Van der Merwe — USENIX ATC 2012).
//
// A Platform bundles a replicated coordination store, a set of
// controller replicas (logical layer), and physical workers. Cloud
// services are defined as a Schema (entities with actions and
// constraints) plus stored Procedures, and exercised through a Client
// that submits transactions and waits for their ACID outcome:
//
//	schema := tropic.NewSchema()
//	... register entities, actions, constraints ...
//	p, err := tropic.New(tropic.Config{
//	    Schema:     schema,
//	    Procedures: procs,
//	    Bootstrap:  initialModel,
//	})
//	p.Start(ctx)
//	defer p.Stop()
//	rec, err := p.Client().SubmitAndWait(ctx, "spawnVM", args...)
//
// Orchestrations either commit in full — on the devices and in the
// logical model — or leave no effect, with constraint violations and
// race conditions caught in the logical layer before any device is
// touched.
package tropic

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/readpath"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/worker"
	"repro/tropic/trerr"
)

// Re-exported model and transaction vocabulary, so services are written
// against the tropic package alone.
type (
	// Schema registers the data model's entities.
	Schema = model.Schema
	// Tree is a hierarchical data model instance.
	Tree = model.Tree
	// Node is one object in the data model.
	Node = model.Node
	// Entity describes a node type.
	Entity = model.Entity
	// ActionDef defines an entity action with its undo.
	ActionDef = model.ActionDef
	// Constraint is a service/engineering rule checked at runtime.
	Constraint = model.Constraint
	// Ctx is the stored-procedure execution context.
	Ctx = controller.Ctx
	// Procedure is orchestration logic run as a transaction.
	Procedure = controller.Procedure
	// Txn is a transaction record.
	Txn = txn.Txn
	// ChildRef is one entry of a cross-shard parent's child ledger.
	ChildRef = txn.ChildRef
	// LogRecord is one execution-log entry (paper Table 1).
	LogRecord = txn.LogRecord
	// State is a transaction state (paper Figure 2).
	State = txn.State
	// StateStamp timestamps one state transition (Txn.History).
	StateStamp = txn.StateStamp
	// Signal is an operator TERM/KILL intervention (§4).
	Signal = txn.Signal
	// Executor is the physical device API used by workers.
	Executor = worker.Executor
	// NoopExecutor is the logical-only mode executor (§5).
	NoopExecutor = worker.NoopExecutor
	// SyncPolicy selects the coordination store's WAL fsync policy.
	SyncPolicy = store.SyncPolicy
	// PersistStats are the store's durability counters.
	PersistStats = store.PersistStats
)

// WAL fsync policies (used with Config.DataDir).
const (
	// SyncAlways fsyncs every logged write (default; machine-crash safe).
	SyncAlways = store.SyncAlways
	// SyncNone leaves flushing to the OS (process-crash safe only).
	SyncNone = store.SyncNone
)

// ParseSyncPolicy parses a sync-policy flag value ("always" | "none").
func ParseSyncPolicy(s string) (SyncPolicy, error) { return store.ParseSyncPolicy(s) }

// Transaction states.
const (
	StateInitialized = txn.StateInitialized
	StateAccepted    = txn.StateAccepted
	StateStarted     = txn.StateStarted
	StateCommitted   = txn.StateCommitted
	StateAborted     = txn.StateAborted
	StateFailed      = txn.StateFailed
	// StatePrepared: a cross-shard child holding its locks, awaiting the
	// coordinator's two-phase-commit decision.
	StatePrepared = txn.StatePrepared
	// StateDeciding: a cross-shard parent whose COMMIT/ABORT decision is
	// durably recorded, awaiting child outcomes.
	StateDeciding = txn.StateDeciding
)

// Operator signals (§4).
const (
	SignalTerm = txn.SignalTerm
	SignalKill = txn.SignalKill
)

// Scheduling policies (§3.1.1).
const (
	ScheduleFIFO       = controller.ScheduleFIFO
	ScheduleAggressive = controller.ScheduleAggressive
)

// ErrAbort aborts a transaction from inside a stored procedure.
var ErrAbort = controller.ErrAbort

// CrossShardMode selects cross-shard transaction handling on a sharded
// platform (Config.CrossShard).
type CrossShardMode int

const (
	// CrossShardAuto (the zero value) resolves to enabled.
	CrossShardAuto CrossShardMode = iota
	// CrossShardEnabled runs submissions spanning shards as atomic
	// two-phase-commit transactions.
	CrossShardEnabled
	// CrossShardDisabled rejects submissions spanning shards with
	// trerr.ShardCrossShard — the single-shard-only ablation.
	CrossShardDisabled
)

// enabled resolves the mode (Auto → enabled).
func (m CrossShardMode) enabled() bool { return m != CrossShardDisabled }

// XShardFastPathMode selects the cross-shard 2PC message flow
// (Config.XShardFastPath).
type XShardFastPathMode int

const (
	// XShardFastPathAuto (the zero value) resolves to enabled.
	XShardFastPathAuto XShardFastPathMode = iota
	// XShardFastPathEnabled coalesces the 2PC message flow:
	// coordinator-local children skip the cross-store prepare round,
	// decisions piggyback on vote acks, and per-peer sends batch into
	// one Multi per event round.
	XShardFastPathEnabled
	// XShardFastPathDisabled restores the one-store-round-trip-per-
	// message flow — the slow-path ablation the cross-shard overhead
	// benchmark compares against. Correctness is identical: both arms
	// prepare children in a deterministic global order with wound-wait
	// resolving lock-order inversions.
	XShardFastPathDisabled
)

// enabled resolves the mode (Auto → enabled).
func (m XShardFastPathMode) enabled() bool { return m != XShardFastPathDisabled }

// NewSchema creates an empty schema.
func NewSchema() *Schema { return model.NewSchema() }

// NewTree creates an empty data model tree.
func NewTree() *Tree { return model.NewTree() }

// Config assembles a platform.
type Config struct {
	// Schema defines the data model entities (required).
	Schema *Schema
	// Procedures is the stored-procedure registry (required).
	Procedures map[string]Procedure
	// Bootstrap is the initial logical data model (required): the
	// device snapshot for a physical deployment, or a synthetic tree in
	// logical-only mode.
	Bootstrap *Tree
	// Executor performs physical actions; nil selects logical-only mode
	// (NoopExecutor), as used by the paper's scale experiments.
	Executor Executor
	// Controllers is the number of controller replicas (default 3,
	// matching the paper's deployment).
	Controllers int
	// WorkerThreads is the number of physical executor threads
	// (default 4; the paper runs one worker with multiple threads).
	WorkerThreads int
	// StoreReplicas is the coordination-store ensemble size (default 3).
	StoreReplicas int
	// SessionTimeout is the store's failure-detection interval, which
	// dominates controller failover time (§6.4). Default 500ms.
	SessionTimeout time.Duration
	// CommitLatency simulates the I/O cost of a store quorum round.
	CommitLatency time.Duration
	// DataDir, when non-empty, makes the coordination store durable:
	// every committed write is logged to this directory before it is
	// applied, and a restarted platform recovers all transaction
	// records, queues, and counters from it — the paper's §2.3 claim
	// that a new lead controller resumes in-flight work after ANY
	// failure, extended to full-process crashes. Empty (the default)
	// keeps the platform purely in-memory.
	DataDir string
	// SyncPolicy selects the WAL fsync policy with DataDir (SyncAlways,
	// the default, or SyncNone).
	SyncPolicy SyncPolicy
	// SnapshotEvery writes a store snapshot and truncates the WAL after
	// this many logged writes (default 4096 with DataDir; negative
	// disables snapshots).
	SnapshotEvery int
	// CheckpointEvery folds the commit log into a snapshot after this
	// many commits (0 disables checkpointing).
	CheckpointEvery int
	// RetainTerminal bounds how many terminal transaction records each
	// shard keeps after a checkpoint (0 keeps all). Cross-shard records
	// are reaped ledger-aware: a child outlives its parent's decision
	// and a parent outlives its children's terminal reports, never the
	// reverse.
	RetainTerminal int
	// Reconciler handles reload/repair requests (§4). Typically
	// reconcile.New(cloud, cloud, tcloud.RepairRules()); nil rejects
	// reconciliation requests.
	Reconciler controller.Reconciler
	// Policy selects the todoQ scheduling strategy: ScheduleFIFO (the
	// paper's default) or ScheduleAggressive (§3.1.1's future-work
	// alternative that schedules past conflicted transactions).
	Policy controller.SchedulingPolicy
	// BatchMaxOps sizes the pipeline's group commits: the lead
	// controller drains up to this many inputQ items per event round and
	// flushes their effects — and each scheduling round's admissions —
	// in single grouped store commits, and workers coalesce up to this
	// many report operations per commit. 0 selects the default (32);
	// 1 makes every controller round a batch of one (same staged path,
	// one grouped commit per item) and turns the client and worker
	// batchers off — the unbatched arm of the ablation benchmarks.
	BatchMaxOps int
	// BatchMaxDelay bounds how long an asynchronously batched store
	// operation (worker outcome reports) waits for company before its
	// batch flushes anyway (default 2ms). It is the pipeline's
	// batching-latency ceiling: no report sits unflushed longer than
	// this.
	BatchMaxDelay time.Duration
	// WorkerClaimBatch is how many phyQ entries one worker thread claims
	// per store round trip (default 4 when batching, 1 otherwise).
	WorkerClaimBatch int
	// Shards partitions the platform horizontally into this many
	// independent shards (default 1: the paper's single-ensemble
	// deployment). Each shard runs its own coordination-store ensemble
	// (with its own WAL under DataDir/shard-NN when durable), controller
	// replicas with their own leader election, queue namespaces, and
	// worker pool; a consistent-hash router assigns every transaction to
	// the shard owning its resource roots. Transactions spanning shards
	// are rejected with trerr.ShardCrossShard — each shard is an
	// independent ACID domain. See docs/sharding.md.
	Shards int
	// ShardExecutors optionally assigns one Executor per shard (length
	// must equal the resolved shard count). Nil shares Executor across
	// all shards — the usual deployment, where shards partition the
	// control plane over one device substrate.
	ShardExecutors []Executor
	// CrossShard selects how a sharded platform handles submissions
	// whose resource roots span shards: CrossShardAuto (the zero value)
	// and CrossShardEnabled execute them as atomic two-phase-commit
	// transactions — split into per-shard children coordinated by the
	// lowest-numbered participant shard; CrossShardDisabled restores the
	// synchronous trerr.ShardCrossShard rejection (the single-shard-only
	// ablation). See docs/cross-shard.md.
	CrossShard CrossShardMode
	// XShardPrepareTimeout bounds how long a cross-shard coordinator
	// waits for participant votes before resolving the transaction as
	// aborted (trerr.XShardInDoubtTimeout), and paces re-delivery of
	// decisions to outstanding children. Default 10s.
	XShardPrepareTimeout time.Duration
	// XShardFastPath selects the cross-shard 2PC message flow:
	// XShardFastPathAuto (the zero value) and XShardFastPathEnabled use
	// the coalesced fast path (local-child coalescing, piggybacked
	// decisions, per-peer fan-out batching); XShardFastPathDisabled
	// restores the per-message-round-trip slow path, kept runnable for
	// the ablation benchmarks. See docs/cross-shard.md.
	XShardFastPath XShardFastPathMode
	// IdempotencyTTL bounds how long an unfinished idempotency claim
	// (a submission that crashed between claiming its key and recording
	// its transaction id) survives before the leader's checkpoint sweep
	// reclaims it. Completed claims — those carrying a transaction id —
	// are never swept. 0 selects the default (5m); negative disables the
	// sweep.
	IdempotencyTTL time.Duration
	// CrossShardHook observes coordinator protocol milestones
	// ("prepare_sent", "decided") per shard — chaos-test
	// instrumentation for crashing leaders at exact protocol points.
	// Nil (the default) in production.
	CrossShardHook func(shard int, event, parentID string)
	// FollowerReads serves watermarked reads (Get/List/Wait and the
	// gateway read path) from any store replica that has applied the
	// caller's zxid watermark, instead of forcing every read through
	// the shard leader's commit lock. Session consistency is preserved:
	// a read always observes at least the caller's own writes. False
	// (the default) is the leader-only baseline the read-path ablation
	// measures. See docs/reads.md.
	FollowerReads bool
	// ReadCacheBytes bounds the per-shard watch-invalidated read cache
	// in resident bytes (records and listings served without touching
	// the store, invalidated by the store's own watch machinery rather
	// than TTLs). 0 (the default) disables caching; the fan-out
	// multiplexer behind WatchTxn runs regardless.
	ReadCacheBytes int64
	// MaxInflightPerShard is the queue-depth admission watermark: a
	// submission targeting a shard whose summed pipeline backlog
	// (inputQ + todoQ + phyQ) has reached this bound is shed
	// synchronously with trerr.APIOverloaded (HTTP 429 + Retry-After at
	// the gateway) instead of joining a queue it would only sit in.
	// Sheds are counted in tropic_admission_shed_total. 0 (the default)
	// disables admission control.
	MaxInflightPerShard int
	// Registry receives every exported instrument (see docs/
	// observability.md); the gateway serves it as GET /metrics. Nil
	// creates a private registry, reachable via Platform.Metrics().
	Registry *metrics.Registry
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Platform is a running TROPIC deployment: one shard (the paper's
// deployment) or several independent shards behind a consistent-hash
// router (Config.Shards).
type Platform struct {
	cfg    Config
	units  []*shardUnit
	router *shard.Router // nil when Shards == 1

	// reg is the metrics registry every subsystem exports through;
	// submitLat and shed are the platform-level series it owns directly.
	reg       *metrics.Registry
	submitLat *metrics.HistogramVec
	shed      *metrics.CounterVec

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	started bool
}

// shardUnit is one shard's full pipeline: its own store ensemble,
// controller replicas (with their own leader election), and worker
// pool. Shards share nothing but the process.
type shardUnit struct {
	index int
	ens   *store.Ensemble
	ctrl  []*controller.Controller
	wrk   *worker.Worker

	// rp is the shard's read path (follower reads, watch-invalidated
	// cache, watch fan-out multiplexer) over its own store session
	// rpCli. Every platform client built by Platform.Client shares it.
	rp    *readpath.Shard
	rpCli *store.Client

	// depthCli lazily holds a store session for queue-depth sampling;
	// gauges retain the latest sampled depths.
	depthMu  sync.Mutex
	depthCli *store.Client
	gauges   metrics.QueueGauges

	// admMu guards the shared depth-sample cache: admission checks and
	// metric scrapes both read queue depths, and the cache bounds how
	// often those turn into store reads.
	admMu    sync.Mutex
	admAt    time.Time
	admDepth metrics.QueueDepths
}

// New builds a platform. Call Start to elect a leader and begin serving.
func New(cfg Config) (*Platform, error) {
	if cfg.Schema == nil {
		return nil, errors.New("tropic: Config.Schema is required")
	}
	if cfg.Bootstrap == nil {
		return nil, errors.New("tropic: Config.Bootstrap is required")
	}
	if cfg.Controllers <= 0 {
		cfg.Controllers = 3
	}
	if cfg.WorkerThreads <= 0 {
		cfg.WorkerThreads = 4
	}
	if cfg.StoreReplicas <= 0 {
		cfg.StoreReplicas = 3
	}
	if cfg.Executor == nil {
		cfg.Executor = NoopExecutor{}
	}
	if cfg.BatchMaxOps == 0 {
		cfg.BatchMaxOps = store.DefaultBatchMaxOps
	}
	if cfg.BatchMaxOps < 1 {
		cfg.BatchMaxOps = 1
	}
	if cfg.BatchMaxDelay <= 0 {
		cfg.BatchMaxDelay = store.DefaultBatchMaxDelay
	}
	if cfg.WorkerClaimBatch <= 0 {
		if cfg.BatchMaxOps > 1 {
			cfg.WorkerClaimBatch = 4
		} else {
			cfg.WorkerClaimBatch = 1
		}
	}
	if cfg.Shards < 0 {
		// A negative shard count is always a configuration bug; reject it
		// with a typed error instead of surprising the caller with a
		// silently-resolved single shard (0, the zero value, IS the
		// documented "default to 1").
		return nil, trerr.Newf(trerr.APIBadRequest,
			"tropic: Config.Shards = %d: shard count must be ≥ 1 (0 selects the default of 1)",
			cfg.Shards).With("shards", fmt.Sprint(cfg.Shards))
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.XShardPrepareTimeout <= 0 {
		cfg.XShardPrepareTimeout = controller.DefaultPrepareTimeout
	}
	if cfg.IdempotencyTTL == 0 {
		cfg.IdempotencyTTL = 5 * time.Minute
	}
	if cfg.ShardExecutors != nil && len(cfg.ShardExecutors) != cfg.Shards {
		return nil, fmt.Errorf("tropic: Config.ShardExecutors has %d entries for %d shards",
			len(cfg.ShardExecutors), cfg.Shards)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	p := &Platform{cfg: cfg, reg: cfg.Registry}
	if p.reg == nil {
		p.reg = metrics.NewRegistry()
	}
	if cfg.Shards > 1 {
		p.router = shard.NewRouter(shard.NewMap(cfg.Shards))
	}
	for i := 0; i < cfg.Shards; i++ {
		u, err := p.newShardUnit(i)
		if err != nil {
			p.closeUnits()
			return nil, err
		}
		p.units = append(p.units, u)
	}
	p.registerInstruments()
	return p, nil
}

// registerInstruments resolves the platform-level series and the
// scrape-time collectors lifting per-shard queue depths and durability
// counters into the registry. Called once from New, after the units
// exist.
func (p *Platform) registerInstruments() {
	p.submitLat = p.reg.HistogramVec("tropic_txn_latency_seconds",
		"Submit-to-terminal transaction latency observed by platform clients, by coordinator shard.",
		nil, "shard")
	p.shed = p.reg.CounterVec("tropic_admission_shed_total",
		"Submissions shed by queue-depth admission control (api.overloaded), by target shard.",
		"shard")
	depth := p.reg.GaugeVec("tropic_queue_depth",
		"Pipeline queue depth sampled at scrape time: inputQ and phyQ from the shard's store, todoQ from its leading controller.",
		"shard", "queue")
	fsyncs := p.reg.CounterVec("tropic_store_fsyncs_total",
		"WAL and directory fsyncs performed by the shard's durable store (0 without Config.DataDir).",
		"shard")
	fsyncSec := p.reg.CounterVec("tropic_store_fsync_seconds_total",
		"Cumulative wall time the shard's durable store spent inside fsync calls.",
		"shard")
	walAppends := p.reg.CounterVec("tropic_store_wal_appends_total",
		"Records appended to the shard's write-ahead log.",
		"shard")
	for i := range p.units {
		i := i
		label := fmt.Sprint(i)
		// Pre-create the shed series so a scraper sees 0 from the first
		// scrape (and can rate() it) instead of the family materializing
		// only after the first rejection.
		p.shed.With(label)
		depth.Func(func() float64 { return float64(p.cachedShardDepths(i).InQ) }, label, "inputq")
		depth.Func(func() float64 { return float64(p.cachedShardDepths(i).TodoQ) }, label, "todoq")
		depth.Func(func() float64 { return float64(p.cachedShardDepths(i).PhyQ) }, label, "phyq")
		fsyncs.Func(func() float64 {
			return float64(p.units[i].ens.PersistStats().Fsyncs)
		}, label)
		fsyncSec.Func(func() float64 {
			return float64(p.units[i].ens.PersistStats().FsyncNanos) / 1e9
		}, label)
		walAppends.Func(func() float64 {
			return float64(p.units[i].ens.PersistStats().WALAppends)
		}, label)
	}
}

// Metrics returns the registry holding every exported instrument — the
// document behind the gateway's GET /metrics.
func (p *Platform) Metrics() *metrics.Registry { return p.reg }

// depthSampleTTL bounds how often admission checks and metric scrapes
// re-read queue depths from a shard's store.
const depthSampleTTL = 5 * time.Millisecond

// cachedShardDepths samples shard i's queue depths at most once per
// depthSampleTTL, sharing the store reads between the admission-control
// hot path and scrape-time depth gauges.
func (p *Platform) cachedShardDepths(i int) metrics.QueueDepths {
	u := p.units[i]
	u.admMu.Lock()
	defer u.admMu.Unlock()
	if !u.admAt.IsZero() && time.Since(u.admAt) < depthSampleTTL {
		return u.admDepth
	}
	u.admDepth = p.ShardQueueDepths(i)
	u.admAt = time.Now()
	return u.admDepth
}

// admitShard is the gateway admission check: with a configured
// watermark, a submission bound for a shard whose summed backlog has
// reached it is shed with trerr.APIOverloaded (a Retry-After hint in
// its details) instead of deepening queues it would only wait in.
func (p *Platform) admitShard(i int) error {
	max := p.cfg.MaxInflightPerShard
	if max <= 0 {
		return nil
	}
	d := p.cachedShardDepths(i)
	backlog := d.InQ + d.TodoQ + d.PhyQ
	if backlog < int64(max) {
		return nil
	}
	p.shed.With(fmt.Sprint(i)).Inc()
	return trerr.Newf(trerr.APIOverloaded,
		"tropic: submit: shard %d backlog %d at admission watermark %d; retry after backoff",
		i, backlog, max).
		With("shard", fmt.Sprint(i)).
		With("retry_after", "1")
}

// newShardUnit assembles one shard's ensemble, controllers, and worker.
func (p *Platform) newShardUnit(i int) (*shardUnit, error) {
	cfg := p.cfg
	dataDir := cfg.DataDir
	namePrefix := ""
	if cfg.Shards > 1 {
		// Each shard gets its own WAL/snapshot directory and its own
		// component names, so logs and on-disk state attribute cleanly.
		if dataDir != "" {
			dataDir = filepath.Join(dataDir, fmt.Sprintf("shard-%02d", i))
		}
		namePrefix = fmt.Sprintf("s%d-", i)
	}
	ens, err := store.OpenEnsemble(store.Config{
		Replicas:       cfg.StoreReplicas,
		SessionTimeout: cfg.SessionTimeout,
		CommitLatency:  cfg.CommitLatency,
		DataDir:        dataDir,
		SyncPolicy:     cfg.SyncPolicy,
		SnapshotEvery:  cfg.SnapshotEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("tropic: store (shard %d): %w", i, err)
	}
	u := &shardUnit{index: i, ens: ens}
	var xs *controller.XShardConfig
	if p.router != nil && cfg.CrossShard.enabled() {
		// Cross-shard coordination: each controller can reach every peer
		// shard's store. The connector is called lazily (under
		// leadership), after New has populated p.units.
		shardIdx := i
		xs = &controller.XShardConfig{
			Self:           shardIdx,
			Router:         p.router,
			PrepareTimeout: cfg.XShardPrepareTimeout,
			FastPath:       cfg.XShardFastPath.enabled(),
			Connect: func(j int) *store.Client {
				if j < 0 || j >= len(p.units) {
					return nil
				}
				return p.units[j].ens.Connect()
			},
		}
		if cfg.CrossShardHook != nil {
			hook := cfg.CrossShardHook
			xs.Hook = func(event, parentID string) { hook(shardIdx, event, parentID) }
		}
	}
	for j := 0; j < cfg.Controllers; j++ {
		c, err := controller.New(controller.Config{
			Name:            fmt.Sprintf("%sctrl-%d", namePrefix, j),
			Ensemble:        ens,
			Schema:          cfg.Schema,
			Procedures:      cfg.Procedures,
			Bootstrap:       cfg.Bootstrap,
			CheckpointEvery: cfg.CheckpointEvery,
			RetainTerminal:  cfg.RetainTerminal,
			Reconciler:      cfg.Reconciler,
			Policy:          cfg.Policy,
			BatchMaxOps:     cfg.BatchMaxOps,
			IdempotencyTTL:  cfg.IdempotencyTTL,
			XShard:          xs,
			Registry:        p.reg,
			Shard:           fmt.Sprint(i),
			Logf:            cfg.Logf,
		})
		if err != nil {
			u.close()
			return nil, err
		}
		u.ctrl = append(u.ctrl, c)
	}
	executor := cfg.Executor
	if cfg.ShardExecutors != nil {
		executor = cfg.ShardExecutors[i]
	}
	w, err := worker.New(worker.Config{
		Name:          namePrefix + "worker-0",
		Ensemble:      ens,
		Executor:      executor,
		Threads:       cfg.WorkerThreads,
		ClaimBatch:    cfg.WorkerClaimBatch,
		BatchMaxOps:   cfg.BatchMaxOps,
		BatchMaxDelay: cfg.BatchMaxDelay,
		Registry:      p.reg,
		Shard:         fmt.Sprint(i),
		Logf:          cfg.Logf,
	})
	if err != nil {
		u.close()
		return nil, err
	}
	u.wrk = w
	// The shard's read path: one store session serving follower reads,
	// the watch-invalidated cache, and the watch fan-out multiplexer
	// for every platform client on this shard.
	u.rpCli = ens.Connect()
	u.rp = readpath.New(readpath.Config{
		Client:        u.rpCli,
		FollowerReads: cfg.FollowerReads,
		CacheBytes:    cfg.ReadCacheBytes,
		Registry:      p.reg,
		Shard:         fmt.Sprint(i),
	})
	return u, nil
}

// close releases a unit's components (tolerating partial construction).
func (u *shardUnit) close() error {
	for _, c := range u.ctrl {
		c.Close()
	}
	if u.wrk != nil {
		u.wrk.Close()
	}
	u.depthMu.Lock()
	if u.depthCli != nil {
		u.depthCli.Close()
		u.depthCli = nil
	}
	u.depthMu.Unlock()
	if u.rp != nil {
		u.rp.Close()
	}
	if u.rpCli != nil {
		u.rpCli.Close()
	}
	return u.ens.Close()
}

func (p *Platform) closeUnits() {
	for _, u := range p.units {
		_ = u.close()
	}
}

// Start launches controllers and workers and returns once a leader is
// serving.
func (p *Platform) Start(ctx context.Context) error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return errors.New("tropic: already started")
	}
	p.started = true
	p.mu.Unlock()

	runCtx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	for _, u := range p.units {
		u := u
		for _, c := range u.ctrl {
			c := c
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				if err := c.Run(runCtx); err != nil && !errors.Is(err, context.Canceled) {
					p.cfg.Logf("tropic: controller exited: %v", err)
				}
			}()
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			if err := u.wrk.Run(runCtx); err != nil && !errors.Is(err, context.Canceled) {
				p.cfg.Logf("tropic: worker exited: %v", err)
			}
		}()
	}
	return p.WaitLeader(ctx)
}

// WaitLeader blocks until every shard has a leading controller.
func (p *Platform) WaitLeader(ctx context.Context) error {
	for {
		ready := true
		for i := range p.units {
			if p.ShardLeader(i) == nil {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Leader returns shard 0's currently leading controller, or nil. Use
// ShardLeader for the other shards of a sharded platform.
func (p *Platform) Leader() *controller.Controller { return p.ShardLeader(0) }

// ShardLeader returns the leading controller of shard i, or nil.
func (p *Platform) ShardLeader(i int) *controller.Controller {
	if i < 0 || i >= len(p.units) {
		return nil
	}
	for _, c := range p.units[i].ctrl {
		if c.Leading() {
			return c
		}
	}
	return nil
}

// KillLeader crashes shard 0's current leader (no graceful cleanup —
// its election node lingers until the store's session timeout, as for
// a real machine failure). Returns the killed controller's name, or ""
// when no leader is up.
func (p *Platform) KillLeader() string { return p.KillShardLeader(0) }

// KillShardLeader crashes shard i's current leader; the shard's
// followers take over after failure detection while every other shard
// keeps serving undisturbed. Returns the killed controller's name, or
// "" when the shard has no leader up.
func (p *Platform) KillShardLeader(i int) string {
	c := p.ShardLeader(i)
	if c == nil {
		return ""
	}
	name := c.Name()
	c.Kill()
	return name
}

// Stop shuts the platform down: every shard's controllers, workers,
// then its store. The returned error reports the first failed final WAL
// flush (only possible with Config.DataDir); the shutdown itself always
// completes on every shard.
func (p *Platform) Stop() error {
	if p.cancel != nil {
		p.cancel()
	}
	p.wg.Wait()
	var firstErr error
	for _, u := range p.units {
		if err := u.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PipelineInfo is the batching configuration in effect, surfaced through
// GET /v1/stats so operators can correlate throughput with the knobs.
type PipelineInfo struct {
	BatchMaxOps      int     `json:"batchMaxOps"`
	BatchMaxDelayMs  float64 `json:"batchMaxDelayMs"`
	WorkerClaimBatch int     `json:"workerClaimBatch"`
	WorkerThreads    int     `json:"workerThreads"`
	// Shards is the number of independent shard pipelines (1 =
	// unsharded); the per-pipeline knobs above apply to each shard.
	Shards int `json:"shards"`
	// CrossShard reports whether submissions spanning shards execute as
	// two-phase-commit transactions (false: rejected, the ablation).
	CrossShard bool `json:"crossShard"`
	// XShardFastPath reports whether the coalesced cross-shard message
	// flow is active (false: per-message round trips, the slow-path
	// ablation). Meaningful only when CrossShard is true.
	XShardFastPath bool `json:"xshardFastPath"`
	// FollowerReads reports whether watermarked reads may be served
	// from follower replicas (false: every read goes to the leader, the
	// read-path ablation).
	FollowerReads bool `json:"followerReads"`
	// ReadCacheBytes is the per-shard watch-invalidated read cache
	// budget (0: caching disabled).
	ReadCacheBytes int64 `json:"readCacheBytes"`
}

// PipelineInfo reports the resolved batching configuration.
func (p *Platform) PipelineInfo() PipelineInfo {
	return PipelineInfo{
		BatchMaxOps:      p.cfg.BatchMaxOps,
		BatchMaxDelayMs:  float64(p.cfg.BatchMaxDelay) / float64(time.Millisecond),
		WorkerClaimBatch: p.cfg.WorkerClaimBatch,
		WorkerThreads:    p.cfg.WorkerThreads,
		Shards:           p.cfg.Shards,
		CrossShard:       p.cfg.Shards > 1 && p.cfg.CrossShard.enabled(),
		XShardFastPath:   p.cfg.Shards > 1 && p.cfg.CrossShard.enabled() && p.cfg.XShardFastPath.enabled(),
		FollowerReads:    p.cfg.FollowerReads,
		ReadCacheBytes:   p.cfg.ReadCacheBytes,
	}
}

// QueueDepths samples the depths of the three pipeline queues, summed
// across every shard: inputQ and phyQ are counted live from each
// shard's store, todoQ from each shard's leading controller gauge (0
// while no leader is up). The canonical back-pressure signal: a growing
// inQ means the controllers are the bottleneck, a growing phyQ means
// the workers are.
func (p *Platform) QueueDepths() metrics.QueueDepths {
	var total metrics.QueueDepths
	for i := range p.units {
		d := p.ShardQueueDepths(i)
		total.InQ += d.InQ
		total.TodoQ += d.TodoQ
		total.PhyQ += d.PhyQ
	}
	return total
}

// ShardQueueDepths samples shard i's pipeline queue depths.
func (p *Platform) ShardQueueDepths(i int) metrics.QueueDepths {
	u := p.units[i]
	u.depthMu.Lock()
	defer u.depthMu.Unlock()
	if u.depthCli == nil {
		u.depthCli = u.ens.Connect()
	}
	count := func(path string) int64 {
		names, err := u.depthCli.Children(path)
		if err != nil {
			return 0
		}
		var n int64
		for _, name := range names {
			if strings.HasPrefix(name, queue.ItemPrefix) {
				n++
			}
		}
		return n
	}
	u.gauges.InQ.Set(count(proto.InputQPath))
	u.gauges.PhyQ.Set(count(proto.PhyQPath))
	if l := p.ShardLeader(i); l != nil {
		u.gauges.TodoQ.Set(l.TodoDepth())
	}
	return u.gauges.Snapshot()
}

// ReadStats reports each shard's read-path counters (cache hits,
// misses, invalidations, evictions, serving-source mix, fan-out
// subscriber and hub counts), indexed by shard. Surfaced through GET
// /v1/stats.
func (p *Platform) ReadStats() []readpath.Stats {
	out := make([]readpath.Stats, len(p.units))
	for i, u := range p.units {
		out[i] = u.rp.Stats()
	}
	return out
}

// ShardReadPath exposes shard i's read path, for tests.
func (p *Platform) ShardReadPath(i int) *readpath.Shard { return p.units[i].rp }

// NumShards returns the number of shards (1 when unsharded).
func (p *Platform) NumShards() int { return len(p.units) }

// ShardOf resolves which shard a submission with these arguments would
// route to. Unsharded platforms always answer 0; sharded platforms
// report trerr.ShardCrossShard for argument sets spanning shards. Used
// by workload generators and tests to build shard-local work.
func (p *Platform) ShardOf(proc string, args ...string) (int, error) {
	if p.router == nil {
		return 0, nil
	}
	return p.router.Route(proc, args)
}

// Ensemble exposes shard 0's coordination store for fault-injection in
// tests and benchmarks. Use ShardEnsemble for the other shards.
func (p *Platform) Ensemble() *store.Ensemble { return p.units[0].ens }

// ShardEnsemble exposes shard i's coordination store.
func (p *Platform) ShardEnsemble(i int) *store.Ensemble { return p.units[i].ens }

// Controllers exposes every controller replica across all shards (for
// HA experiments and stats).
func (p *Platform) Controllers() []*controller.Controller {
	var out []*controller.Controller
	for _, u := range p.units {
		out = append(out, u.ctrl...)
	}
	return out
}

// ShardControllers exposes shard i's controller replicas.
func (p *Platform) ShardControllers(i int) []*controller.Controller { return p.units[i].ctrl }

// Worker exposes shard 0's physical worker. Use ShardWorker for the
// other shards, or WorkerStats for the platform-wide aggregate.
func (p *Platform) Worker() *worker.Worker { return p.units[0].wrk }

// ShardWorker exposes shard i's physical worker.
func (p *Platform) ShardWorker(i int) *worker.Worker { return p.units[i].wrk }

// WorkerStats sums worker activity across every shard.
func (p *Platform) WorkerStats() worker.Stats {
	var total worker.Stats
	for _, u := range p.units {
		s := u.wrk.Stats()
		total.Committed += s.Committed
		total.Aborted += s.Aborted
		total.Failed += s.Failed
		total.Actions += s.Actions
		total.Undos += s.Undos
	}
	return total
}

// ControllerStats sums stats across all controller replicas of every
// shard.
func (p *Platform) ControllerStats() controller.Stats {
	var total controller.Stats
	for _, c := range p.Controllers() {
		s := c.Stats()
		total.Accepted += s.Accepted
		total.Committed += s.Committed
		total.Aborted += s.Aborted
		total.Failed += s.Failed
		total.Deferrals += s.Deferrals
		total.Violations += s.Violations
		total.BusyNanos += s.BusyNanos
		total.ConstraintNanos += s.ConstraintNanos
		total.RollbackNanos += s.RollbackNanos
		total.Rollbacks += s.Rollbacks
		total.InBatches += s.InBatches
		total.InBatchItems += s.InBatchItems
		total.Flushes += s.Flushes
		total.FlushedOps += s.FlushedOps
		total.FlushNanos += s.FlushNanos
		if s.MaxInBatch > total.MaxInBatch {
			total.MaxInBatch = s.MaxInBatch
		}
		if s.MaxFlushOps > total.MaxFlushOps {
			total.MaxFlushOps = s.MaxFlushOps
		}
	}
	return total
}

// Client opens a new client session against the platform. On a sharded
// platform the client holds one store session per shard and routes
// every call by resource root (submissions) or id prefix (lookups).
func (p *Platform) Client() *Client {
	connect := func(u *shardUnit) *Client {
		cli := u.ens.Connect()
		label := fmt.Sprint(u.index)
		groupOps := p.reg.HistogramVec("tropic_store_group_commit_ops",
			"Operations carried by one store group commit, by submitting component.",
			metrics.DefSizeBuckets, "shard", "source").With(label, "submit")
		groupLat := p.reg.HistogramVec("tropic_store_group_commit_seconds",
			"Wall time of one store group commit, by submitting component.",
			nil, "shard", "source").With(label, "submit")
		// The submit path's coalescing obeys the same knobs as the rest
		// of the pipeline.
		cli.ConfigureBatcher(store.BatcherConfig{
			MaxOps:   p.cfg.BatchMaxOps,
			MaxDelay: p.cfg.BatchMaxDelay,
			OnFlush: func(ops int, d time.Duration) {
				groupOps.Observe(float64(ops))
				groupLat.ObserveDuration(d)
			},
		})
		shardIdx := u.index
		return &Client{
			cli:     cli,
			procs:   p.cfg.Procedures,
			batched: p.cfg.BatchMaxOps > 1,
			rp:      u.rp,
			admit:   func() error { return p.admitShard(shardIdx) },
			lat:     p.submitLat.With(label),
		}
	}
	if p.router == nil {
		return connect(p.units[0])
	}
	c := &Client{
		router:     p.router,
		procs:      p.cfg.Procedures,
		planner:    shard.NewPlanner(p.router.Map()),
		crossShard: p.cfg.CrossShard.enabled(),
	}
	for _, u := range p.units {
		c.subs = append(c.subs, connect(u))
	}
	return c
}

// Client submits transactional orchestrations and tracks their outcome,
// playing the role of the API service gateway in Figure 1.
type Client struct {
	cli *store.Client
	// procs is the platform's procedure registry, used to reject
	// unknown procedures synchronously at submit time (nil skips the
	// check, for clients constructed without a registry).
	procs map[string]Procedure
	// batched routes submissions through the store client's group-commit
	// batcher, so concurrent submitters sharing this Client coalesce
	// their record and notice creations into shared proposal rounds.
	// Set from the platform's BatchMaxOps; false preserves the per-item
	// submission path.
	batched bool
	// seq numbers this client's batched submissions (their record ids
	// are client-generated rather than sequence-allocated, so record and
	// notice can ride one atomic commit).
	seq atomic.Int64

	// router and subs make this a sharded client: router derives the
	// owning shard of every call and subs holds one single-shard client
	// per shard. cli is nil in this mode; ids returned to callers are
	// shard-qualified ("s<shard>-<local id>").
	router *shard.Router
	subs   []*Client
	// planner splits cross-shard submissions into per-shard children;
	// crossShard gates whether such submissions execute (two-phase
	// commit) or reject (trerr.ShardCrossShard, the ablation).
	planner    *shard.Planner
	crossShard bool

	// rp, when non-nil, is the shard's read path: Get/Wait/List and the
	// watch surface serve through it (cache hit, follower replica, or
	// leader fall-through) instead of issuing leader reads on cli, and
	// WatchTxn/Wait subscribe to its fan-out multiplexer instead of
	// arming per-call store watches. Owned by the platform's shard unit
	// and shared by every client on the shard; nil on clients built
	// outside Platform.Client.
	rp *readpath.Shard

	// admit, when non-nil, is the platform's admission-control check for
	// this client's shard, consulted before a submission writes anything
	// (nil on clients built outside Platform.Client, e.g. in tests).
	admit func() error
	// lat, when non-nil, observes submit-to-terminal latency for every
	// terminal record this client's Wait returns.
	lat *metrics.BucketHistogram
}

// admitted runs the shard's admission check, if the client has one.
func (c *Client) admitted() error {
	if c.admit == nil {
		return nil
	}
	return c.admit()
}

// sharded reports whether this client fans out over shard sub-clients.
func (c *Client) sharded() bool { return c.router != nil }

// resolveID splits a shard-qualified id into its owning sub-client and
// shard-local id. Ids without a well-formed shard prefix cannot name
// any transaction on a sharded platform and are reported as
// trerr.TxnNotFound.
func (c *Client) resolveID(id string) (*Client, int, string, error) {
	s, local, ok := shard.ParseID(id, len(c.subs))
	if !ok {
		return nil, 0, "", trerr.Newf(trerr.TxnNotFound,
			"tropic: transaction %q not found (sharded ids carry an s<shard>- prefix)", id).With("id", id)
	}
	return c.subs[s], s, local, nil
}

// locate resolves ANY transaction id to its owning sub-client, the id
// to use against it, and how to re-qualify returned record ids. A plain
// id routes by its "s<shard>-" prefix and is re-qualified on the way
// out; a cross-shard CHILD id ("<parent>.c<k>") routes via the parent's
// ledger — its record lives on the participant shard under the full
// child id, which is already platform-unique and passes through
// unchanged.
func (c *Client) locate(id string) (sub *Client, local string, qualify func(string) string, err error) {
	if parentID, k, ok := shard.ParseChildID(id); ok {
		psub, _, plocal, err := c.resolveID(parentID)
		if err != nil {
			return nil, "", nil, err
		}
		prec, err := psub.Get(plocal)
		if err != nil {
			return nil, "", nil, err
		}
		if k >= len(prec.Children) || prec.Children[k].Shard < 0 || prec.Children[k].Shard >= len(c.subs) {
			return nil, "", nil, trerr.Newf(trerr.TxnNotFound,
				"tropic: transaction %s has no child %d", parentID, k).With("id", id)
		}
		return c.subs[prec.Children[k].Shard], id, func(local string) string { return local }, nil
	}
	sub, s, local, err := c.resolveID(id)
	if err != nil {
		return nil, "", nil, err
	}
	return sub, local, func(local string) string { return shard.FormatID(s, local) }, nil
}

// refreshChildren overlays a parent record's ledger with each child's
// live state, so Get/Wait callers see cross-shard progress without
// waiting for the coordinator's next ledger write. Best-effort: a child
// read failure leaves the coordinator's last known entry.
func (c *Client) refreshChildren(rec *Txn) {
	for k := range rec.Children {
		ref := &rec.Children[k]
		if ref.State.Terminal() || ref.Shard < 0 || ref.Shard >= len(c.subs) {
			continue
		}
		child, err := c.subs[ref.Shard].Get(ref.ID)
		if err != nil {
			continue
		}
		ref.State, ref.Error, ref.Code = child.State, child.Error, child.Code
	}
}

// Close releases the client's store session(s).
func (c *Client) Close() {
	if c.sharded() {
		for _, sub := range c.subs {
			sub.Close()
		}
		return
	}
	c.cli.Close()
}

// ValidateProc rejects submissions that could never execute: an empty
// procedure name (submit.invalid_args) or one missing from the registry
// (txn.unknown_procedure).
func (c *Client) ValidateProc(proc string) error {
	if proc == "" {
		return trerr.New(trerr.SubmitInvalidArgs, "tropic: submit: empty procedure name")
	}
	if c.procs != nil {
		if _, ok := c.procs[proc]; !ok {
			return trerr.Newf(trerr.TxnUnknownProcedure,
				"tropic: submit: unknown stored procedure %q", proc).With("proc", proc)
		}
	}
	return nil
}

// Submit initiates a transaction (Figure 2, ①) and returns its id. The
// procedure name is validated against the registry, so an unknown
// procedure is rejected here instead of producing a transaction doomed
// to abort asynchronously.
func (c *Client) Submit(proc string, args ...string) (string, error) {
	if err := c.ValidateProc(proc); err != nil {
		return "", err
	}
	if c.sharded() {
		// Route by the submission's resource roots. A single-shard plan
		// submits to its owner; a spanning plan either executes as an
		// atomic cross-shard transaction (the default) or, with
		// Config.CrossShard disabled, is rejected here
		// (trerr.ShardCrossShard) — the single-shard-only ablation.
		split := c.planner.Split(proc, args)
		if !split.CrossShard() {
			s := split.Coordinator()
			id, err := c.subs[s].Submit(proc, args...)
			if err != nil {
				return "", err
			}
			return shard.FormatID(s, id), nil
		}
		if !c.crossShard {
			return "", c.rejectCrossShard(proc, args)
		}
		// Every participant shard must admit the work: a parent whose
		// children would land in saturated pipelines is shed whole —
		// 2PC holds cross-shard locks for the slowest participant, so
		// overload on any member shard is overload for the transaction.
		for _, s := range split.Shards {
			if err := c.subs[s].admitted(); err != nil {
				return "", err
			}
		}
		return c.xSubmit(split, proc, args)
	}
	if err := c.admitted(); err != nil {
		return "", err
	}
	now := time.Now()
	rec := &txn.Txn{
		Proc:        proc,
		Args:        args,
		State:       txn.StateInitialized,
		SubmittedAt: now,
		History:     []txn.StateStamp{{State: txn.StateInitialized, At: now}},
	}
	if c.batched {
		// Group-committed submission: record and notice ride ONE atomic
		// batch (no orphaned records), coalesced with every concurrent
		// submitter on this client into shared proposal rounds. The
		// record id is client-generated — session id plus a local
		// counter, unique ensemble-wide — because a sequence-allocated
		// name would only be known after a first, separate commit.
		id := fmt.Sprintf("t-s%xc%08d", c.cli.SessionID(), c.seq.Add(1))
		path := proto.TxnsPath + "/" + id
		err := <-c.cli.MultiAsync(
			store.CreateOp(path, rec.Encode(), 0),
			store.CreateOp(proto.InputQPath+"/item-",
				proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path}.Encode(), store.FlagSequence),
		)
		if err != nil {
			return "", fmt.Errorf("tropic: submit: %w", err)
		}
		return id, nil
	}
	path, err := c.cli.Create(proto.TxnPrefix, rec.Encode(), store.FlagSequence)
	if err != nil {
		return "", fmt.Errorf("tropic: submit: %w", err)
	}
	_, err = c.cli.Create(proto.InputQPath+"/item-",
		proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path}.Encode(), store.FlagSequence)
	if err != nil {
		return "", fmt.Errorf("tropic: submit enqueue: %w", err)
	}
	return idFromPath(path), nil
}

// rejectCrossShard builds the ablation rejection for a spanning
// submission (Config.CrossShard disabled), preferring Route's detailed
// error — it names the conflicting roots and shards.
func (c *Client) rejectCrossShard(proc string, args []string) error {
	if _, err := c.router.Route(proc, args); err != nil {
		return err
	}
	// Unreachable while Route and Split agree on what spans shards.
	return trerr.New(trerr.ShardCrossShard,
		"tropic: submit: transaction spans shards and cross-shard execution is disabled")
}

// xSubmit initiates a cross-shard transaction: one PARENT record on the
// coordinator shard (a deterministic hash of the submission over the
// participants, balancing coordination load) naming one child per
// participant shard, created atomically with its submit notice. The coordinator's lead controller drives the two-phase commit
// from there; the returned parent id supports Get/Wait/WatchTxn like
// any other. The parent id is client-generated (session id + local
// counter, a distinct "t-x" prefix) so the deterministic child ids can
// be derived before anything is written.
func (c *Client) xSubmit(split shard.Split, proc string, args []string) (string, error) {
	coord := split.CoordinatorFor(proc, args)
	sub := c.subs[coord]
	local := fmt.Sprintf("%s%xc%08d", shard.ParentLocalPrefix, sub.cli.SessionID(), sub.seq.Add(1))
	qualified := shard.FormatID(coord, local)
	children := make([]txn.ChildRef, len(split.Shards))
	for k, s := range split.Shards {
		children[k] = txn.ChildRef{ID: shard.ChildID(qualified, k), Shard: s}
	}
	now := time.Now()
	rec := &txn.Txn{
		Proc:        proc,
		Args:        args,
		State:       txn.StateInitialized,
		SubmittedAt: now,
		History:     []txn.StateStamp{{State: txn.StateInitialized, At: now}},
		Children:    children,
	}
	path := proto.TxnsPath + "/" + local
	// Asynchronous through the session batcher (like batched single-shard
	// submits): concurrent cross-shard submitters coalesce into shared
	// proposal rounds instead of each paying a private commit.
	err := <-sub.cli.MultiAsync(
		store.CreateOp(path, rec.Encode(), 0),
		store.CreateOp(proto.InputQPath+"/item-",
			proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path}.Encode(), store.FlagSequence),
	)
	if err != nil {
		return "", fmt.Errorf("tropic: submit cross-shard: %w", err)
	}
	return qualified, nil
}

// Watermark returns the highest store zxid this client's own writes
// have committed at (the maximum across shards on a sharded client).
// A caller that threads this value into GetAt/WaitAt/ListAt — or sends
// it as the X-Tropic-Zxid header over HTTP — is guaranteed to observe
// all of its own writes no matter which replica serves the read.
func (c *Client) Watermark() int64 {
	if c.sharded() {
		var max int64
		for _, sub := range c.subs {
			if z := sub.cli.LastWriteZxid(); z > max {
				max = z
			}
		}
		return max
	}
	return c.cli.LastWriteZxid()
}

// Get fetches the current record of a transaction. An unknown id is
// reported as trerr.TxnNotFound. The read is served through the shard's
// read path under the client's own write watermark, so it always
// observes this client's completed submissions (session consistency)
// while bypassing the leader whenever a caught-up replica or cache
// entry can answer.
func (c *Client) Get(id string) (*Txn, error) {
	if c.sharded() {
		// Each sub-client applies its own shard's watermark, which is
		// tighter than the cross-shard maximum.
		rec, _, err := c.GetAt(id, -1)
		return rec, err
	}
	rec, _, err := c.GetAt(id, c.cli.LastWriteZxid())
	return rec, err
}

// GetAt is Get with an explicit zxid watermark: the read is served from
// any source (cache, follower replica, leader) whose state has applied
// at least minZxid. It returns the zxid the read was actually served at
// (0 when the shard has no read path), which callers chain into
// follow-up reads for monotonicity. Passing minZxid < 0 substitutes the
// serving shard's own client watermark.
func (c *Client) GetAt(id string, minZxid int64) (*Txn, int64, error) {
	if id == "" {
		return nil, 0, trerr.New(trerr.APIBadRequest, "tropic: get: missing transaction id")
	}
	if c.sharded() {
		sub, local, qualify, err := c.locate(id)
		if err != nil {
			return nil, 0, err
		}
		rec, z, err := sub.GetAt(local, minZxid)
		if err != nil {
			return nil, 0, err
		}
		rec.ID = qualify(rec.ID)
		if rec.IsParent() {
			c.refreshChildren(rec)
		}
		return rec, z, nil
	}
	if minZxid < 0 {
		minZxid = c.cli.LastWriteZxid()
	}
	data, z, err := c.readRecord(proto.TxnsPath+"/"+id, minZxid)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			return nil, z, trerr.Wrap(trerr.TxnNotFound, err,
				fmt.Sprintf("transaction %s not found", id)).With("id", id)
		}
		return nil, 0, err
	}
	rec, err := txn.Decode(data)
	if err != nil {
		return nil, 0, err
	}
	rec.ID = id
	return rec, z, nil
}

// readRecord reads one record node through the shard's read path when
// the platform has one, falling back to a plain leader read.
func (c *Client) readRecord(path string, minZxid int64) ([]byte, int64, error) {
	if c.rp != nil {
		data, _, z, _, err := c.rp.GetRecord(path, minZxid)
		return data, z, err
	}
	data, _, err := c.cli.Get(path)
	return data, 0, err
}

// Wait blocks until the transaction reaches a terminal state and
// returns its final record. An unknown id is reported as
// trerr.TxnNotFound; an elapsed deadline as trerr.TxnWaitTimeout (with
// context.DeadlineExceeded still in the chain).
func (c *Client) Wait(ctx context.Context, id string) (*Txn, error) {
	rec, _, err := c.WaitAt(ctx, id, -1)
	return rec, err
}

// WaitAt is Wait with an explicit zxid watermark (see GetAt; minZxid <
// 0 substitutes the serving shard's own client watermark). On a
// platform with a read path the wait subscribes to the shard's fan-out
// multiplexer — one shared store watch per record, however many
// concurrent waiters — and each wakeup re-reads through the cache.
func (c *Client) WaitAt(ctx context.Context, id string, minZxid int64) (*Txn, int64, error) {
	if c.sharded() {
		sub, local, qualify, err := c.locate(id)
		if err != nil {
			return nil, 0, err
		}
		rec, z, err := sub.WaitAt(ctx, local, minZxid)
		if err != nil {
			return nil, 0, err
		}
		rec.ID = qualify(rec.ID)
		if rec.IsParent() {
			c.refreshChildren(rec)
		}
		return rec, z, nil
	}
	if c.rp == nil {
		rec, err := c.waitLegacy(ctx, id)
		return rec, 0, err
	}
	path := proto.TxnsPath + "/" + id
	sub, err := c.rp.Subscribe(path)
	if err != nil {
		return nil, 0, err
	}
	defer sub.Close()
	rec, z, err := c.GetAt(id, minZxid)
	for {
		if err != nil {
			return nil, 0, err
		}
		if rec.State.Terminal() {
			if c.lat != nil {
				c.lat.ObserveDuration(rec.Latency())
			}
			return rec, z, nil
		}
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, 0, trerr.Wrap(trerr.TxnWaitTimeout, ctx.Err(),
					fmt.Sprintf("tropic: wait %s: deadline elapsed before a terminal state", id)).With("id", id)
			}
			return nil, 0, ctx.Err()
		case _, ok := <-sub.C():
			if !ok {
				return nil, 0, store.ErrSessionExpired
			}
		}
		// Re-read PAST the position just served: the wakeup proves the
		// record changed after zxid z, and a still-cached entry at
		// exactly z would otherwise satisfy the watermark and stall the
		// loop on the state the event superseded.
		rec, z, err = c.GetAt(id, z+1)
	}
}

// waitLegacy is the read-path-less wait: one armed store watch per
// check round against the leader tree.
func (c *Client) waitLegacy(ctx context.Context, id string) (*Txn, error) {
	path := proto.TxnsPath + "/" + id
	for {
		watch, err := c.cli.WatchNode(path)
		if err != nil {
			return nil, err
		}
		rec, err := c.Get(id)
		if err != nil {
			c.cli.Unwatch(path, watch)
			return nil, err
		}
		if rec.State.Terminal() {
			// Terminal records never change again: release the armed
			// watch instead of leaking it for the session's lifetime.
			c.cli.Unwatch(path, watch)
			if c.lat != nil {
				c.lat.ObserveDuration(rec.Latency())
			}
			return rec, nil
		}
		select {
		case <-ctx.Done():
			c.cli.Unwatch(path, watch)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, trerr.Wrap(trerr.TxnWaitTimeout, ctx.Err(),
					fmt.Sprintf("tropic: wait %s: deadline elapsed before a terminal state", id)).With("id", id)
			}
			return nil, ctx.Err()
		case ev := <-watch:
			if ev.Type == store.EventSessionExpired {
				return nil, store.ErrSessionExpired
			}
		}
	}
}

// SubmitAndWait submits and waits for the outcome.
func (c *Client) SubmitAndWait(ctx context.Context, proc string, args ...string) (*Txn, error) {
	id, err := c.Submit(proc, args...)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id)
}

// Reload asks the lead controller to synchronize the logical layer from
// the physical state of the target subtree and waits for the outcome
// (§4). Intended for device additions and decommissionings.
func (c *Client) Reload(ctx context.Context, target string) error {
	return c.reconcileRequest(ctx, proto.KindReload, target)
}

// Repair asks the lead controller to drive the physical state of the
// target subtree back to the logical state and waits for the outcome
// (§4). TROPIC invokes this periodically at an operator-chosen
// frequency.
func (c *Client) Repair(ctx context.Context, target string) error {
	return c.reconcileRequest(ctx, proto.KindRepair, target)
}

func (c *Client) reconcileRequest(ctx context.Context, kind proto.MsgKind, target string) error {
	if c.sharded() {
		// Reconciliation is a per-shard operation: the target subtree's
		// resource root names the shard whose logical layer must
		// resynchronize.
		return c.subs[c.router.RouteTarget(target)].reconcileRequest(ctx, kind, target)
	}
	if err := c.cli.EnsurePath(proto.RepliesPath); err != nil {
		return err
	}
	replyPath, err := c.cli.Create(proto.RepliesPath+"/r-", nil, store.FlagSequence)
	if err != nil {
		return err
	}
	defer func() { _ = c.cli.Delete(replyPath, -1) }()
	watch, err := c.cli.WatchNode(replyPath)
	if err != nil {
		return err
	}
	_, err = c.cli.Create(proto.InputQPath+"/item-",
		proto.InputMsg{Kind: kind, Target: target, Reply: replyPath}.Encode(), store.FlagSequence)
	if err != nil {
		c.cli.Unwatch(replyPath, watch)
		return err
	}
	select {
	case <-ctx.Done():
		c.cli.Unwatch(replyPath, watch)
		return ctx.Err()
	case ev := <-watch:
		if ev.Type == store.EventSessionExpired {
			return store.ErrSessionExpired
		}
	}
	data, _, err := c.cli.Get(replyPath)
	if err != nil {
		return err
	}
	reply, err := proto.DecodeReply(data)
	if err != nil {
		return err
	}
	if !reply.OK {
		code := trerr.Code(reply.Code)
		if !code.Valid() {
			code = trerr.ReconcileConflict
		}
		return trerr.New(code,
			fmt.Sprintf("tropic: %s %s: %s", kind, target, reply.Error)).With("target", target)
	}
	return nil
}

// Signal sends a TERM or KILL to a transaction (§4). The signal value
// and the transaction's existence are validated synchronously
// (trerr.TxnInvalidSignal / trerr.TxnNotFound).
func (c *Client) Signal(id string, sig txn.Signal) error {
	if sig != txn.SignalTerm && sig != txn.SignalKill {
		return trerr.Newf(trerr.TxnInvalidSignal,
			"tropic: signal %q: signal must be TERM or KILL", sig)
	}
	if c.sharded() {
		sub, local, _, err := c.locate(id)
		if err != nil {
			return err
		}
		if shard.IsParentLocal(local) {
			// Parents are pure coordination records — there is no
			// simulation or physical execution to stop; the 2PC decision
			// resolves them. Recognized by the id prefix alone, so the
			// common signal path pays no extra record read.
			return trerr.Newf(trerr.TxnInvalidSignal,
				"tropic: signal %s: cross-shard parents cannot be signalled; signal a child", id).With("id", id)
		}
		return sub.Signal(local, sig)
	}
	rec, err := c.Get(id)
	if err != nil {
		return err
	}
	if rec.IsChild() && (rec.State == txn.StatePrepared || rec.State == txn.StateStarted) {
		// A prepared child voted yes and a started one is past the COMMIT
		// decision: two-phase commit forbids either from aborting
		// unilaterally — one participant rolling back while its siblings
		// commit would silently break the transaction's atomicity.
		// Signals reach cross-shard work only before the vote (the whole
		// transaction then aborts everywhere).
		return trerr.Newf(trerr.TxnInvalidSignal,
			"tropic: signal %s: cross-shard child is %s and cannot abort unilaterally", id, rec.State).With("id", id)
	}
	_, err = c.cli.Create(proto.InputQPath+"/item-",
		proto.InputMsg{
			Kind:    proto.KindSignal,
			TxnPath: proto.TxnsPath + "/" + id,
			Signal:  string(sig),
		}.Encode(), store.FlagSequence)
	return err
}

func idFromPath(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}
