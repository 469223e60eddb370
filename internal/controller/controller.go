package controller

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/election"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/tropic/trerr"
)

// Config parameterizes a controller instance.
type Config struct {
	// Name identifies the controller in the leader election.
	Name string
	// Ensemble is the coordination store backing queues, election, and
	// persistent transaction state.
	Ensemble *store.Ensemble
	// Schema defines the data model's entities.
	Schema *model.Schema
	// Procedures is the stored-procedure registry.
	Procedures map[string]Procedure
	// Bootstrap is the initial logical data model, written as the first
	// snapshot if the store has none (typically the device layer's
	// snapshot, or a synthetic tree in logical-only mode).
	Bootstrap *model.Tree
	// CheckpointEvery folds the commit log into a fresh snapshot after
	// this many commits, when no transaction is in flight. 0 disables
	// checkpointing.
	CheckpointEvery int
	// RetainTerminal bounds how many terminal transaction records are
	// kept after a checkpoint (oldest are garbage-collected; their
	// effects live on in the snapshot). 0 keeps all records forever.
	RetainTerminal int
	// IdempotencyTTL bounds how long idempotency entries survive: at
	// checkpoint time, unresolved claims and resolved key→txn mappings
	// older than the TTL are swept, so a submitter that died mid-claim
	// (or a long-gone retry storm) cannot grow the ledger forever. 0
	// disables the sweep.
	IdempotencyTTL time.Duration
	// Reconciler handles reload/repair requests (§4); nil rejects them.
	Reconciler Reconciler
	// Policy selects the todoQ scheduling strategy (§3.1.1). The paper
	// ships FIFO and names the aggressive strategy as future work; both
	// are implemented here (see the scheduling-policy ablation bench).
	Policy SchedulingPolicy
	// BatchMaxOps caps how many inputQ items the leader drains per event
	// round; the round's grouped Multi carries those items' staged
	// effects plus the scheduling pass's admissions, typically a few ops
	// per item (Stats.MaxFlushOps reports the realized sizes). Values
	// ≤ 1 drain one item per round through the same staged handlers — a
	// batch of one, with one grouped commit per item (the ablation
	// benchmarks' unbatched arm).
	BatchMaxOps int
	// XShard wires the controller into the cross-shard transaction
	// layer: as coordinator for parents whose plan names this shard
	// first, and as participant for child prepares. Nil (the default,
	// and always on unsharded platforms) rejects cross-shard work.
	XShard *XShardConfig
	// Registry receives the controller's exported instruments (event
	// rounds, flush latency, per-stage counters, 2PC phase timings). Nil
	// uses a private registry, so instrumentation is always live.
	Registry *metrics.Registry
	// Shard is the label value for this controller's exported series
	// ("0" when empty). Replicas of one shard share their series through
	// the registry, so counters stay monotone across failovers.
	Shard string
	// Logf receives diagnostic output; nil silences it.
	Logf func(format string, args ...any)
}

// SchedulingPolicy picks how schedule() treats a deferred transaction.
type SchedulingPolicy int

const (
	// ScheduleFIFO is the paper's policy: a transaction deferred on a
	// resource conflict returns to the front of todoQ and scheduling
	// stalls until the next event — simple and fair, but one conflicted
	// transaction head-of-line-blocks everything behind it. Cross-shard
	// children are the exception: they are still tried behind a deferred
	// head (see scheduleWalk).
	ScheduleFIFO SchedulingPolicy = iota
	// ScheduleAggressive is the §3.1.1 future-work strategy: when the
	// head defers, the scheduler keeps going and tries the transactions
	// queued behind it. Independent transactions proceed at the cost of
	// extra simulation work (deferred transactions are re-simulated on
	// retry) and possible head-of-queue starvation under persistent
	// conflicts.
	ScheduleAggressive
)

// Stats counts controller activity. Retrieve a consistent copy with
// Controller.Stats.
type Stats struct {
	Accepted   int64
	Committed  int64
	Aborted    int64
	Failed     int64
	Deferrals  int64
	Violations int64
	// BusyNanos accumulates time spent executing logical-layer work
	// (acceptance, simulation, scheduling, cleanup); the Figure 4 CPU
	// metric is BusyNanos over wall time.
	BusyNanos int64
	// ConstraintNanos accumulates time spent in constraint checking
	// during simulation — the §6.2 safety-overhead metric.
	ConstraintNanos int64
	// RollbackNanos accumulates time spent rolling the logical layer
	// back on aborts — the §6.3 robustness-overhead metric.
	RollbackNanos int64
	// Rollbacks counts logical rollbacks performed.
	Rollbacks int64

	// Batch-pipeline counters.
	//
	// InBatches counts event rounds that drained input (inputQ items or
	// locally-delivered cross-shard messages) and InBatchItems the items
	// they carried; their ratio is the achieved event-batch size (1 when
	// BatchMaxOps ≤ 1).
	InBatches    int64
	InBatchItems int64
	// MaxInBatch is the largest single drain.
	MaxInBatch int64
	// Flushes counts grouped Multi commits (one per round with staged
	// effects), FlushedOps the store operations they carried,
	// and MaxFlushOps the largest single flush.
	Flushes     int64
	FlushedOps  int64
	MaxFlushOps int64
	// FlushNanos is wall time spent inside grouped flush commits — the
	// group-commit latency the BatchMaxDelay knob bounds upstream.
	FlushNanos int64
}

// ctrlInstruments is the controller's registry-backed instrument
// bundle. The registry is get-or-create, so every replica of a shard
// resolves the same underlying series: whichever replica leads
// increments the shared counters, and a failover continues them
// monotonically instead of restarting from zero.
type ctrlInstruments struct {
	shard      string
	rounds     *metrics.Counter         // event rounds drained from inputQ
	roundItems *metrics.BucketHistogram // items carried per drain round
	flushLat   *metrics.BucketHistogram // grouped Multi commit wall time
	flushOps   *metrics.BucketHistogram // store ops per grouped commit
	stages     *metrics.CounterVec      // {shard, stage} lifecycle outcomes

	xPhase   *metrics.HistogramVec // {shard, phase} 2PC phase durations
	xInDoubt *metrics.Counter      // in-doubt resolutions on this shard
	xParents *metrics.CounterVec   // {shard, outcome} finalized parents

	// Fast-path (coalesced 2PC message flow) instruments.
	xLocalKids *metrics.Counter         // coordinator-local children coalesced into the parent's accept
	xPiggy     *metrics.Counter         // decisions delivered without a decide-notice round trip
	xWounds    *metrics.Counter         // wound-wait vote retractions written to coordinator records
	xPeerBatch *metrics.BucketHistogram // store ops per per-peer fan-out Multi
}

// mark bumps the exported per-stage counter for this shard.
func (m *ctrlInstruments) mark(stage string) { m.stages.With(m.shard, stage).Inc() }

// newCtrlInstruments resolves the controller's series in reg.
func newCtrlInstruments(reg *metrics.Registry, shard string) ctrlInstruments {
	return ctrlInstruments{
		shard: shard,
		rounds: reg.CounterVec("tropic_controller_rounds_total",
			"Event rounds the lead controller drained from inputQ.", "shard").With(shard),
		roundItems: reg.HistogramVec("tropic_controller_round_items",
			"inputQ items carried by one event round of the lead controller.",
			metrics.DefSizeBuckets, "shard").With(shard),
		flushLat: reg.HistogramVec("tropic_controller_flush_seconds",
			"Wall time of one grouped Multi commit (staged accepts, cleanups, and admission rounds).",
			nil, "shard").With(shard),
		flushOps: reg.HistogramVec("tropic_controller_flush_ops",
			"Store operations carried by one grouped Multi commit.",
			metrics.DefSizeBuckets, "shard").With(shard),
		stages: reg.CounterVec("tropic_controller_stage_total",
			"Logical-layer stage outcomes: accepted, committed, aborted, failed, deferred, violation.",
			"shard", "stage"),
		xPhase: reg.HistogramVec("tropic_xshard_phase_seconds",
			"Coordinator-side 2PC phase durations: vote is one participant's prepare round trip, prepare is fan-out to durable decision, decide is decision to finalized parent.",
			nil, "shard", "phase"),
		xInDoubt: reg.CounterVec("tropic_xshard_indoubt_total",
			"In-doubt cross-shard resolutions: prepare deadlines forcing a presumed-abort decision, and recovered prepared children consulting the coordinator record.",
			"shard").With(shard),
		xParents: reg.CounterVec("tropic_xshard_parents_total",
			"Finalized cross-shard parent transactions by terminal outcome.",
			"shard", "outcome"),
		xLocalKids: reg.CounterVec("tropic_xshard_local_children_total",
			"Coordinator-local children created in the same grouped Multi as their parent's accept, skipping the cross-store prepare round (fast path).",
			"shard").With(shard),
		xPiggy: reg.CounterVec("tropic_xshard_piggyback_total",
			"2PC decisions applied without a decide-notice round trip: read off the parent record by the vote-ack watch, or delivered in memory to a coordinator-local child (fast path).",
			"shard").With(shard),
		xWounds: reg.CounterVec("tropic_xshard_wounds_total",
			"Wound-wait resolutions: prepared children's votes this participant retracted in their coordinator records, releasing their locks to an older cross-shard transaction.",
			"shard").With(shard),
		xPeerBatch: reg.HistogramVec("tropic_xshard_peer_batch_ops",
			"Store operations carried by one per-peer cross-shard fan-out Multi (fast path).",
			metrics.DefSizeBuckets, "shard").With(shard),
	}
}

// countStage bumps one Stats field under the mutex and mirrors it into
// the exported per-stage counter.
func (c *Controller) countStage(stat *int64, stage string) {
	c.mu.Lock()
	*stat++
	c.mu.Unlock()
	c.met.mark(stage)
}

// Controller is one TROPIC controller replica. All replicas run Run;
// the elected leader executes the logical layer while followers stand
// by to take over (§2.3).
type Controller struct {
	cfg    Config
	cli    *store.Client
	inputQ *queue.Queue
	phyQ   *queue.Queue
	cand   *election.Candidate

	// Leader-only state, rebuilt by recover() on election.
	ltree    *model.Tree
	locks    *lock.Manager
	todo     []*txn.Txn
	inFlight map[string]*txn.Txn
	// prepared tracks cross-shard children that voted yes and hold their
	// locks awaiting the coordinator's 2PC decision. Like inFlight, it
	// is leader-only state rebuilt by recover().
	prepared map[string]*txn.Txn

	stats     Stats
	met       ctrlInstruments
	leading   atomic.Bool
	todoDepth metrics.Gauge

	mu     sync.Mutex // guards stats snapshotting
	killed atomic.Bool

	// xtMu guards xTimes, the coordinator-side phase clock for parents
	// in flight: when prepares fanned out and when the decision landed,
	// so the prepare→decide→finalize phase durations can be exported.
	xtMu   sync.Mutex
	xTimes map[string]*xPhaseClock

	// xmu guards the lazily-connected peer-shard sessions used by the
	// cross-shard layer and the pending prepare-deadline timers, which
	// Kill and Close stop (xStopped refuses new ones) so a stopped
	// controller is not kept reachable until its deadlines fire.
	xmu      sync.Mutex
	xpeers   map[int]*store.Client
	xTimers  map[*time.Timer]struct{}
	xStopped bool

	// lmu guards localMsgs, the in-memory cross-shard messages the fast
	// path delivers to this controller's own leader loop (a coordinator-
	// local child's vote, a piggybacked decision) without an inputQ
	// write. localWake (capacity 1) kicks the leader's blocking drain.
	lmu       sync.Mutex
	localMsgs []proto.InputMsg
	localWake chan struct{}

	// Leader-goroutine-only round state: resched asks for a scheduling
	// pass after the round's flush (a coordinator-local child joined
	// todoQ, a decision freed locks, or a failed flush requeued work);
	// replay counts the single-item rounds still owed to the items of a
	// failed round; peerCollect/peerSends stage cross-shard sends so
	// every message bound for one peer in a round rides a single Multi
	// through that peer's batcher.
	resched     bool
	replay      int
	peerCollect bool
	peerSends   map[int][]peerSend

	// wmu guards wounding, the set of peer parent records with a
	// wound-wait abort in flight (dedup across scheduling rounds).
	wmu      sync.Mutex
	wounding map[string]bool
}

// New connects a controller to the ensemble and ensures the store
// layout exists.
func New(cfg Config) (*Controller, error) {
	if cfg.Ensemble == nil || cfg.Schema == nil {
		return nil, errors.New("controller: Ensemble and Schema are required")
	}
	if cfg.Name == "" {
		return nil, errors.New("controller: Name is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cli := cfg.Ensemble.Connect()
	for _, p := range []string{proto.TxnsPath, proto.InputQPath, proto.PhyQPath,
		proto.ElectionPath, proto.CommitLogPath, proto.InconsistentPath, proto.UnusablePath} {
		if err := cli.EnsurePath(p); err != nil {
			cli.Close()
			return nil, fmt.Errorf("controller: layout: %w", err)
		}
	}
	inputQ, err := queue.New(cli, proto.InputQPath)
	if err != nil {
		cli.Close()
		return nil, err
	}
	phyQ, err := queue.New(cli, proto.PhyQPath)
	if err != nil {
		cli.Close()
		return nil, err
	}
	cand, err := election.New(cli, proto.ElectionPath, cfg.Name)
	if err != nil {
		cli.Close()
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	shard := cfg.Shard
	if shard == "" {
		shard = "0"
	}
	c := &Controller{
		cfg:       cfg,
		cli:       cli,
		inputQ:    inputQ,
		phyQ:      phyQ,
		cand:      cand,
		met:       newCtrlInstruments(reg, shard),
		localWake: make(chan struct{}, 1),
	}
	if cfg.Bootstrap != nil {
		if err := c.writeBootstrapSnapshot(cfg.Bootstrap); err != nil {
			cli.Close()
			return nil, err
		}
	}
	return c, nil
}

// writeBootstrapSnapshot installs the initial model snapshot unless one
// already exists (only the first controller to boot wins).
func (c *Controller) writeBootstrapSnapshot(t *model.Tree) error {
	data, err := t.MarshalSnapshot()
	if err != nil {
		return fmt.Errorf("controller: bootstrap snapshot: %w", err)
	}
	env := proto.Snapshot{Tree: data}
	_, err = c.cli.Create(proto.SnapshotPath, env.Encode(), 0)
	if errors.Is(err, store.ErrNodeExists) {
		return nil
	}
	return err
}

// Run enrolls in the election and serves: followers block awaiting
// leadership; the leader executes the logical layer until ctx is done,
// its session expires, or the ensemble loses quorum.
func (c *Controller) Run(ctx context.Context) error {
	if err := c.cand.Enroll(); err != nil {
		return err
	}
	if err := c.cand.AwaitLeadership(ctx); err != nil {
		return err
	}
	c.cfg.Logf("controller %s: elected leader", c.cfg.Name)
	if err := c.recover(); err != nil {
		return fmt.Errorf("controller %s: recover: %w", c.cfg.Name, err)
	}
	// Only a fully recovered controller reports itself leading: its
	// logical model, lock table, and todoQ are rebuilt and it is about
	// to serve. (Recovery time as observed by clients therefore
	// includes state reconstruction, as in the paper's measurement.)
	c.leading.Store(true)
	defer c.leading.Store(false)
	return c.lead(ctx)
}

// Leading reports whether this controller is currently the leader. A
// killed (crashed) controller is never leading, even before its session
// expires.
func (c *Controller) Leading() bool { return c.leading.Load() && !c.killed.Load() }

// Name returns the controller's election identity.
func (c *Controller) Name() string { return c.cfg.Name }

// Kill simulates a controller crash: the store session stops
// heartbeating (ephemeral election node lingers until the session
// timeout, exactly like a crashed machine), and the leader loop dies on
// its next store operation.
func (c *Controller) Kill() {
	c.killed.Store(true)
	c.cli.Kill()
	// The crash takes the controller's cross-shard reach with it: a dead
	// coordinator must not keep delivering prepares or decisions.
	c.xKillPeers()
}

// Close releases the controller's session gracefully.
func (c *Controller) Close() {
	_ = c.cand.Resign()
	c.xClosePeers()
	c.cli.Close()
}

// Stats returns a copy of the activity counters. The mutex-guarded
// counters and the atomically-updated timing counters are read with
// their respective disciplines (a whole-struct copy would race with the
// atomic writers).
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		Accepted:     c.stats.Accepted,
		Committed:    c.stats.Committed,
		Aborted:      c.stats.Aborted,
		Failed:       c.stats.Failed,
		Deferrals:    c.stats.Deferrals,
		Violations:   c.stats.Violations,
		InBatches:    c.stats.InBatches,
		InBatchItems: c.stats.InBatchItems,
		MaxInBatch:   c.stats.MaxInBatch,
		Flushes:      c.stats.Flushes,
		FlushedOps:   c.stats.FlushedOps,
		MaxFlushOps:  c.stats.MaxFlushOps,
		FlushNanos:   c.stats.FlushNanos,
	}
	c.mu.Unlock()
	s.BusyNanos = atomic.LoadInt64(&c.stats.BusyNanos)
	s.ConstraintNanos = atomic.LoadInt64(&c.stats.ConstraintNanos)
	s.RollbackNanos = atomic.LoadInt64(&c.stats.RollbackNanos)
	s.Rollbacks = atomic.LoadInt64(&c.stats.Rollbacks)
	return s
}

// --- Leader loop ------------------------------------------------------

// lead processes inputQ until ctx is done or the session dies. The
// lead controller is the queue's only consumer; each item is deleted
// atomically with the persistent effects of processing it, so a leader
// crash at any point neither loses nor double-applies a message.
//
// Every event round drains up to BatchMaxOps items (one when
// BatchMaxOps ≤ 1), stages their persistent effects and the scheduling
// pass's admissions, and commits the round in one grouped Multi. Under a
// backlog this amortizes the store round trip that otherwise dominates
// per-transaction cost (§6.1) across the whole batch — the queues fill
// while a flush is in flight, so the pipeline is self-clocking.
func (c *Controller) lead(ctx context.Context) error {
	// Retry backoff for a persistently failing item: exponential from
	// retryBackoffMin to retryBackoffMax, reset on any clean round.
	// Store latency makes each failed attempt cheap for the leader but
	// expensive for the ensemble, so the pause grows with consecutive
	// failures instead of hot-looping at a flat 1ms.
	backoff := time.Duration(0)
	for {
		locals, items, err := c.takeInput(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		start := time.Now()
		c.noteInBatch(len(locals) + len(items))
		roundErr := c.processRound(locals, items)
		if roundErr != nil {
			if errFatal(roundErr) {
				return roundErr
			}
			if backoff == 0 {
				backoff = retryBackoffMin
			} else if backoff *= 2; backoff > retryBackoffMax {
				backoff = retryBackoffMax
			}
			// The wait is idle time, not work: close the busy window
			// before sleeping and reopen it after, or the Figure 4 CPU
			// proxy would count up to retryBackoffMax per retry as load.
			atomic.AddInt64(&c.stats.BusyNanos, time.Since(start).Nanoseconds())
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			start = time.Now()
		} else {
			backoff = 0
		}
		atomic.AddInt64(&c.stats.BusyNanos, time.Since(start).Nanoseconds())
	}
}

// takeInput blocks for the leader's next round of input:
// locally-delivered (in-memory) cross-shard messages when any are
// pending, drained inputQ items otherwise, at most batchMax items in
// all. A pending local message wakes the drain out of its store watch
// via localWake. It returns at once, possibly empty, while a failed
// round's requeued todoQ work awaits a scheduling pass; and while
// replay is owed after a failed round, it drains one item per round.
func (c *Controller) takeInput(ctx context.Context) (locals []proto.InputMsg, items []queue.Item, err error) {
	n := c.batchMax()
	if c.replay > 0 {
		n = 1
		defer func() {
			if len(locals)+len(items) > 0 {
				c.replay--
			}
		}()
	}
	if locals = c.takeLocal(n); len(locals) > 0 || (c.resched && len(c.todo) > 0) {
		return locals, nil, nil
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-c.localWake:
			select {
			case <-stop:
				// This take already returned: the token belongs to the
				// next one, which may be blocked in the store drain with
				// the message pending.
				c.wakeLocal()
			default:
				cancel()
			}
		case <-stop:
		}
	}()
	items, err = c.inputQ.TakeHeadBatch(tctx, n)
	if err != nil {
		if !errors.Is(err, context.Canceled) || ctx.Err() != nil {
			return nil, nil, err
		}
		// Woken for local messages, not cancelled for real. A wake token
		// consumed without pending messages (the race where both a store
		// item and a local message arrived) is harmless: pending local
		// messages are re-checked at the top of every take.
	}
	return c.takeLocal(n - len(items)), items, nil
}

// enqueueLocal delivers a cross-shard message to this controller's own
// leader loop in memory, skipping the store round trip of an inputQ
// write. Safe from any goroutine. Local messages die with the process —
// acceptable because every kind has a durable backstop: lost votes and
// child-dones are recovered by the coordinator's direct ledger sync at
// the prepare deadline, and lost decisions are re-delivered (as real
// notices) until the child reports terminal.
func (c *Controller) enqueueLocal(msg proto.InputMsg) {
	c.lmu.Lock()
	c.localMsgs = append(c.localMsgs, msg)
	c.lmu.Unlock()
	c.wakeLocal()
}

// wakeLocal posts the (capacity-1) wake token for the leader's drain.
func (c *Controller) wakeLocal() {
	select {
	case c.localWake <- struct{}{}:
	default:
	}
}

// takeLocal drains up to n pending local messages, oldest first.
func (c *Controller) takeLocal(n int) []proto.InputMsg {
	c.lmu.Lock()
	defer c.lmu.Unlock()
	if n > len(c.localMsgs) {
		n = len(c.localMsgs)
	}
	if n <= 0 {
		return nil
	}
	msgs := c.localMsgs[:n:n]
	c.localMsgs = c.localMsgs[n:]
	return msgs
}

// noticeRemove consumes an inputQ notice, tolerating the empty item path
// of a locally-delivered message (which has no store item to consume).
func (c *Controller) noticeRemove(itemPath string) error {
	if itemPath == "" {
		return nil
	}
	return c.inputQ.Remove(itemPath)
}

// noticeRemoveOps returns the notice-consumption op, or nothing for a
// locally-delivered message.
func (c *Controller) noticeRemoveOps(itemPath string) []store.Op {
	if itemPath == "" {
		return nil
	}
	return []store.Op{c.inputQ.RemoveOp(itemPath)}
}

// processRound handles one event round end to end: the drained items'
// staged effects AND the scheduling pass's admissions all ride one
// grouped Multi — a freshly submitted transaction can go
// accepted→started→phyQ in a single store commit shared with the rest of
// its round. Cross-shard sends triggered anywhere in the round are
// collected per peer shard and flushed as one Multi per peer on the way
// out.
func (c *Controller) processRound(locals []proto.InputMsg, items []queue.Item) error {
	c.peerCollect = true
	defer func() {
		c.peerCollect = false
		c.xFlushPeerSends()
	}()
	// This round's scheduling pass covers whatever an earlier round left
	// queued; the round's own effects may ask for another pass.
	c.resched = false
	r := newRound(len(locals) + len(items))
	err := c.stageRound(r, locals, items)
	if r.failed || (err != nil && errFatal(err)) {
		return err
	}
	c.scheduleInto(r)
	if ferr := c.flushRound(r); ferr != nil {
		return ferr
	}
	// The flush's cleanups released locks AFTER the round's scheduling
	// pass ran, and a coordinator-local child may have joined todoQ
	// post-flush (resched). If queued work remains, schedule again now — a
	// deferred transaction must not wait for an input event that may
	// never come to claim locks that are already free.
	if (r.cleanups > 0 || c.resched) && len(c.todo) > 0 {
		c.resched = false
		if serr := c.schedule(); serr != nil {
			return serr
		}
	}
	c.todoDepth.Set(int64(len(c.todo)))
	return err
}

// batchMax returns the per-round drain bound (1 = a batch of one).
func (c *Controller) batchMax() int {
	if c.cfg.BatchMaxOps > 1 {
		return c.cfg.BatchMaxOps
	}
	return 1
}

// noteInBatch records one round that drained n > 0 items; pure
// scheduling passes and empty wake-ups are not drains.
func (c *Controller) noteInBatch(n int) {
	if n == 0 {
		return
	}
	c.met.rounds.Inc()
	c.met.roundItems.Observe(float64(n))
	c.mu.Lock()
	c.stats.InBatches++
	c.stats.InBatchItems += int64(n)
	if int64(n) > c.stats.MaxInBatch {
		c.stats.MaxInBatch = int64(n)
	}
	c.mu.Unlock()
}

// noteFlush records one grouped Multi commit in the batch stats and the
// exported flush histograms.
func (c *Controller) noteFlush(ops int, d time.Duration) {
	c.met.flushOps.Observe(float64(ops))
	c.met.flushLat.ObserveDuration(d)
	c.mu.Lock()
	c.stats.Flushes++
	c.stats.FlushedOps += int64(ops)
	if int64(ops) > c.stats.MaxFlushOps {
		c.stats.MaxFlushOps = int64(ops)
	}
	c.stats.FlushNanos += d.Nanoseconds()
	c.mu.Unlock()
}

// round accumulates the staged persistent effects of one event round:
// store operations to group-commit, the in-memory effects to apply once
// the commit lands, and the in-memory changes to undo if it fails
// validation (e.g. a record's version moved between staging and flush).
type round struct {
	ops   []store.Op
	after []func()
	// undo reverts in-memory changes a handler made while staging (a
	// decided child's transition, an early lock release); run in reverse
	// staging order when the flush fails.
	undo []func()
	// staged tracks transaction paths with staged effects, so a second
	// message touching the same record defers to the next round instead
	// of poisoning the grouped Multi with a stale version; staged
	// inconsistency-mark creates are tracked here too.
	staged map[string]bool
	// locals are the local messages whose effects are staged in ops;
	// they go back to the local queue if the flush fails.
	locals []proto.InputMsg
	// drained counts the items the round took (store and local); a
	// failed flush owes each of them a single-item replay round.
	drained int
	// failed is set once a flush of this round failed; the round stops.
	failed bool
	// accepted are transactions optimistically appended to todoQ this
	// round (so the same round's scheduling pass can admit them); removed
	// again if the flush fails.
	accepted []*txn.Txn
	// admitted are transactions whose admission (started-state write +
	// phyQ enqueue) is staged in ops; fully unwound — simulation, locks,
	// transition — if the flush fails.
	admitted []*txn.Txn
	// aborted are transactions whose terminal abort write is staged in
	// ops; if the flush fails they revert to accepted and requeue — the
	// state their abort verdict was derived from (e.g. a sibling
	// admission's simulated effects) may have been unwound with the
	// round, so the verdict must be re-derived, not persisted blind.
	aborted []*txn.Txn
	// cleanups counts staged result cleanups, whose deferred lock
	// releases require a post-flush scheduling pass.
	cleanups int
}

func newRound(drained int) *round {
	return &round{staged: make(map[string]bool), drained: drained}
}

func (r *round) stage(ops []store.Op, after func()) {
	r.ops = append(r.ops, ops...)
	if after != nil {
		r.after = append(r.after, after)
	}
}

// stageRound stages one round's drained input, local messages ahead of
// the store items. Submit, result and 2PC ledger/decision/retract
// messages are staged for the grouped commit; signal, deadline and
// reconciliation requests (rare, and with their own write patterns) are
// handled directly after flushing whatever is staged, preserving queue
// order. A failed flush ends the round: the items behind it stay queued
// and replay. The returned error, if any, is the first failure —
// session and quorum losses short-circuit immediately.
func (c *Controller) stageRound(r *round, locals []proto.InputMsg, items []queue.Item) error {
	var firstErr error
	note := func(kind proto.MsgKind, err error) error {
		if errFatal(err) {
			return err
		}
		c.cfg.Logf("controller %s: handle %s: %v", c.cfg.Name, kind, err)
		if firstErr == nil {
			firstErr = err
		}
		return nil
	}
	for _, msg := range locals {
		// A message colliding with a record already staged this round is
		// requeued by its handler for the next one.
		staged := len(r.ops)
		var err error
		switch msg.Kind {
		case proto.KindXVote:
			err = c.stageXVote(r, msg, "")
		case proto.KindXChildDone:
			err = c.stageXChildDone(r, msg, "")
		case proto.KindXDecide:
			err = c.stageXDecide(r, msg, "")
		case proto.KindXRetract:
			err = c.stageXRetract(r, msg)
		default:
			c.cfg.Logf("controller %s: dropping local message kind %q", c.cfg.Name, msg.Kind)
		}
		if len(r.ops) > staged {
			r.locals = append(r.locals, msg)
		}
		if err != nil {
			if ferr := note(msg.Kind, err); ferr != nil {
				return ferr
			}
		}
	}
	for _, it := range items {
		msg, err := proto.DecodeInputMsg(it.Data)
		if err != nil {
			c.cfg.Logf("controller %s: dropping bad input item: %v", c.cfg.Name, err)
			r.stage([]store.Op{c.inputQ.RemoveOp(it.Path)}, nil)
			continue
		}
		switch msg.Kind {
		case proto.KindSubmit:
			err = c.stageAccept(r, msg, it.Path)
		case proto.KindResult:
			err = c.stageCleanup(r, msg, it.Path)
		case proto.KindXVote:
			err = c.stageXVote(r, msg, it.Path)
		case proto.KindXChildDone:
			err = c.stageXChildDone(r, msg, it.Path)
		case proto.KindXDecide:
			err = c.stageXDecide(r, msg, it.Path)
		default:
			// Flush staged work first so this item observes (and its own
			// writes serialize after) everything ahead of it in the queue.
			if ferr := c.flushRound(r); ferr != nil {
				return ferr
			}
			err = c.handle(msg, it.Path)
		}
		if err != nil {
			if ferr := note(msg.Kind, err); ferr != nil {
				return ferr
			}
		}
	}
	return firstErr
}

// errFatal reports errors that must tear the leader loop down.
func errFatal(err error) bool {
	return errors.Is(err, store.ErrSessionExpired) || errors.Is(err, store.ErrNoQuorum)
}

// flushRound group-commits everything staged. On success the deferred
// in-memory effects run in staging order (matching what sequential
// per-item processing would have done). On a validation failure (e.g. a
// record's version moved under a staged write) the round is unwound —
// staged admissions roll their simulations, locks, and transitions back,
// staged aborts revert to accepted, optimistic todoQ appends are
// removed, and the handlers' undo steps run — and nothing is re-applied
// here. The round's store items are still in inputQ (their removals rode
// the failed Multi) and its local messages go back to the local queue;
// the next rounds drain them one item each through the same staged
// handlers, so the item that failed the group is retried on its own.
func (c *Controller) flushRound(r *round) error {
	if len(r.ops) == 0 {
		return nil
	}
	ops, after, undo, locals := r.ops, r.after, r.undo, r.locals
	accepted, admitted, aborted := r.accepted, r.admitted, r.aborted
	r.ops, r.after, r.undo, r.locals = nil, nil, nil, nil
	r.accepted, r.admitted, r.aborted = nil, nil, nil
	r.staged = make(map[string]bool)

	start := time.Now()
	err := c.cli.Multi(ops...)
	c.noteFlush(len(ops), time.Since(start))
	if err == nil {
		for _, f := range after {
			f()
		}
		return nil
	}
	r.failed = true
	if errFatal(err) {
		return err
	}
	c.cfg.Logf("controller %s: grouped flush of %d ops failed, replaying its %d items one per round: %v",
		c.cfg.Name, len(ops), r.drained, err)

	// Unwind staged admissions in reverse admission order. Transactions
	// whose accept rode this same round are dropped entirely — the replay
	// re-reads the record and accepts a fresh copy; re-admitting the
	// stale copy too would double-execute them.
	acceptedSet := make(map[*txn.Txn]bool, len(accepted))
	for _, t := range accepted {
		acceptedSet[t] = true
	}
	var requeue []*txn.Txn
	for i := len(admitted) - 1; i >= 0; i-- {
		t := admitted[i]
		if rbErr := rollbackLog(c.ltree, c.cfg.Schema, t.Log); rbErr != nil {
			c.cfg.Logf("controller %s: unwind %s: %v", c.cfg.Name, t.ID, rbErr)
			c.locks.ReleaseAll(t.ID)
			c.abortQueued(t, err, nil)
			continue
		}
		c.locks.ReleaseAll(t.ID)
		revert(t, txn.StateAccepted)
		t.Log = nil
		if !acceptedSet[t] {
			requeue = append([]*txn.Txn{t}, requeue...)
		}
	}
	// Staged aborts revert to accepted and requeue for re-evaluation by
	// the next scheduling pass: their verdicts may have been derived from
	// sibling effects that were just unwound. State-independent verdicts
	// (signals, unknown procedures) simply re-abort there.
	for i := len(aborted) - 1; i >= 0; i-- {
		t := aborted[i]
		revert(t, txn.StateAccepted)
		t.Error, t.Code = "", ""
		if !acceptedSet[t] {
			requeue = append([]*txn.Txn{t}, requeue...)
		}
	}
	// Remove this round's optimistic todoQ appends; the replayed submit
	// notices re-accept them from the store.
	if len(accepted) > 0 {
		kept := c.todo[:0]
		for _, t := range c.todo {
			if !acceptedSet[t] {
				kept = append(kept, t)
			}
		}
		c.todo = kept
	}
	c.todo = append(requeue, c.todo...)
	for i := len(undo) - 1; i >= 0; i-- {
		undo[i]()
	}
	for _, msg := range locals {
		c.enqueueLocal(msg)
	}
	if r.drained > c.replay {
		c.replay = r.drained
	}
	// The unwound and requeued transactions must not wait for the next
	// input event: the leader schedules again without blocking.
	c.resched = true
	return err
}

// schedule runs a scheduling pass outside a drained round — recovery,
// and the pass after a round whose flush freed locks or queued work —
// as a round of its own, so every admission commits through flushRound.
func (c *Controller) schedule() error {
	r := newRound(0)
	c.scheduleInto(r)
	err := c.flushRound(r)
	c.todoDepth.Set(int64(len(c.todo)))
	return err
}

// Retry backoff bounds for the leader loop: the floor matches the old
// flat pause; the cap keeps a stuck head item from freezing signal and
// reconciliation handling for long stretches.
const (
	retryBackoffMin = time.Millisecond
	retryBackoffMax = 100 * time.Millisecond
)

// handle processes the input kinds that are not staged into the round's
// grouped commit: deadline checks, operator signals and reconciliation
// requests.
func (c *Controller) handle(msg proto.InputMsg, itemPath string) error {
	switch msg.Kind {
	case proto.KindXTimeout:
		return c.xTimeout(msg, itemPath)
	case proto.KindSignal:
		if err := c.signal(msg.TxnPath, txn.Signal(msg.Signal)); err != nil {
			// A signal for a record that does not exist can never
			// succeed; drop it instead of retrying forever at the head
			// of the queue.
			if !errors.Is(err, store.ErrNoNode) {
				return err
			}
			c.cfg.Logf("controller %s: dropping signal for missing record %s", c.cfg.Name, msg.TxnPath)
		}
		return c.inputQ.Remove(itemPath)
	case proto.KindReload, proto.KindRepair:
		var err error
		if c.cfg.Reconciler == nil {
			err = trerr.Newf(trerr.ReconcileUnsupported,
				"%s %s: no reconciler configured", msg.Kind, msg.Target)
		} else if msg.Kind == proto.KindReload {
			err = c.cfg.Reconciler.Reload(c, msg.Target)
		} else {
			err = c.cfg.Reconciler.Repair(c, msg.Target)
		}
		c.reply(msg, err)
		if rerr := c.inputQ.Remove(itemPath); rerr != nil {
			return rerr
		}
		// The request itself is complete even if reconciliation was
		// refused; the refusal went to the reply node.
		if err != nil {
			c.cfg.Logf("controller %s: %s %s: %v", c.cfg.Name, msg.Kind, msg.Target, err)
		}
		return nil
	default:
		if err := c.inputQ.Remove(itemPath); err != nil {
			return err
		}
		return fmt.Errorf("unknown input message kind %q", msg.Kind)
	}
}

// reply delivers a request's outcome to its reply node, if any.
func (c *Controller) reply(msg proto.InputMsg, err error) {
	if msg.Reply == "" {
		return
	}
	r := proto.Reply{OK: err == nil}
	if err != nil {
		r.Error = err.Error()
		code := trerr.CodeOf(err)
		if code == "" {
			// Reconciler implementations return plain errors; classify
			// them under the reconcile area.
			code = trerr.ReconcileConflict
		}
		r.Code = string(code)
	}
	if serr := c.cli.Set(msg.Reply, r.Encode(), -1); serr != nil {
		c.cfg.Logf("controller %s: reply to %s: %v", c.cfg.Name, msg.Reply, serr)
	}
}

// stageAccept moves a submitted transaction into todoQ (Figure 2, ②):
// it validates the submitted record now but defers the persistent
// transition — staged into the round's grouped Multi with consuming the
// submit notice — while appending to todoQ optimistically, so this
// round's own scheduling pass can admit the transaction.
func (c *Controller) stageAccept(r *round, msg proto.InputMsg, itemPath string) error {
	if r.staged[msg.TxnPath] {
		// Another message already staged effects on this record this
		// round; leave the item queued — the next drain re-reads it
		// against the flushed state.
		return nil
	}
	rec, stat, err := c.loadTxn(msg.TxnPath)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			r.stage([]store.Op{c.inputQ.RemoveOp(itemPath)}, nil)
			return nil
		}
		return err
	}
	if rec.State != txn.StateInitialized {
		// Duplicate submit notice (e.g. the record was already accepted
		// by recovery); drop it.
		r.stage([]store.Op{c.inputQ.RemoveOp(itemPath)}, nil)
		return nil
	}
	if rec.IsParent() {
		// A cross-shard parent: its accepted write rides this round's
		// grouped Multi; the prepare fan-out (writes to OTHER shards'
		// stores, which cannot join this Multi) runs post-flush.
		return c.stageXAcceptParent(r, rec, stat, msg, itemPath)
	}
	if err := rec.Transition(txn.StateAccepted); err != nil {
		return err
	}
	r.staged[msg.TxnPath] = true
	// The todoQ append is optimistic — this round's own scheduling pass
	// may admit the transaction, putting accept and admission in the
	// same grouped commit. flushRound undoes the append if the group
	// fails.
	c.todo = append(c.todo, rec)
	r.accepted = append(r.accepted, rec)
	r.stage(
		[]store.Op{
			c.inputQ.RemoveOp(itemPath),
			store.SetOp(msg.TxnPath, rec.Encode(), stat.Version),
		},
		func() { c.countStage(&c.stats.Accepted, "accepted") },
	)
	return nil
}

// scheduleOutcome classifies one scheduling attempt.
type scheduleOutcome int

const (
	outcomeRunnable scheduleOutcome = iota
	outcomeConflict
	outcomeAborted
)

// scheduleInto works through todoQ, staging its admissions and aborts
// into the round — the group commit of transaction admission. Under the
// paper's FIFO policy it stops at the first transaction deferred on a
// resource conflict (the deferred transaction stays at the front and
// scheduling resumes on the next event), except for cross-shard
// children behind it (see scheduleWalk); under the aggressive policy it
// continues past deferred transactions so independent work behind them
// proceeds (§3.1.1).
func (c *Controller) scheduleInto(r *round) {
	if c.xEnabled() {
		// Deterministic global prepare order: every participant acquires
		// cross-shard child locks in the same order, so two children of
		// different parents contending on two shards cannot deadlock by
		// acquiring in reversed orders (see shard.PrepareLess).
		c.xOrderChildren()
	}
	first := len(r.admitted)
	c.scheduleWalk(r)
	pending := r.admitted[first:]
	// Coordinator-local children's yes-votes ride the same Multi as their
	// prepare writes (fast path); their post-flush effects run after every
	// admission in the round is tracked.
	votes := c.xStageLocalVotes(r, pending)
	for _, t := range pending {
		t := t
		apply := func() { c.admitApply(t) }
		if votes[t.ID] != nil {
			apply = func() { c.prepared[t.ID] = t }
		}
		r.stage(c.admissionOps(t), apply)
	}
	for _, t := range pending {
		if v := votes[t.ID]; v != nil {
			r.stage(v.ops, func() { c.xPostVote(v.rec, v.eff) })
		}
	}
}

// scheduleWalk is scheduleInto's pass over todoQ. Under FIFO, once a
// transaction defers, only cross-shard children behind it are still
// tried: a child's prepare is a vote that other shards' prepared
// children wait on, so holding it behind a local head that itself waits
// on such a prepared child could close a wait-for cycle across shards
// that no lock conflict reveals to wound-wait. Waiting local work holds
// no locks, so letting children past it cannot starve it of any.
func (c *Controller) scheduleWalk(r *round) {
	blocked := false
	i := 0
	for i < len(c.todo) {
		t := c.todo[i]
		if blocked && !t.IsChild() {
			i++
			continue
		}
		if t.Signal == txn.SignalTerm || t.Signal == txn.SignalKill {
			c.todo = append(c.todo[:i], c.todo[i+1:]...)
			c.abortQueued(t, trerr.New(trerr.TxnTerminated, "terminated by operator signal"), r)
			continue
		}
		switch c.trySchedule(t, r) {
		case outcomeRunnable, outcomeAborted:
			c.todo = append(c.todo[:i], c.todo[i+1:]...)
		case outcomeConflict:
			c.countStage(&c.stats.Deferrals, "deferred")
			t.State = txn.StateDeferred // in-memory only; persisted as accepted
			if c.cfg.Policy == ScheduleFIFO {
				if !c.xEnabled() {
					return
				}
				blocked = true
			}
			i++
		}
	}
}

// TodoDepth reports the current todoQ length (a gauge updated by the
// leader at the end of every scheduling round).
func (c *Controller) TodoDepth() int64 { return c.todoDepth.Load() }

// trySchedule simulates t against the logical model, checks constraints,
// and attempts to acquire its locks (Figure 2, ③A-③C).
func (c *Controller) trySchedule(t *txn.Txn, r *round) scheduleOutcome {
	t.State = txn.StateAccepted
	t.Log = nil
	cctx := newCtx(c.ltree, c.cfg.Schema, t)
	proc, ok := c.cfg.Procedures[t.Proc]
	var simErr error
	if !ok {
		simErr = trerr.Newf(trerr.TxnUnknownProcedure, "unknown stored procedure %q", t.Proc)
	} else {
		simErr = proc(cctx)
	}
	atomic.AddInt64(&c.stats.ConstraintNanos, cctx.constraintNanos)
	if simErr != nil {
		// Roll back whatever the simulation applied, then abort (③A).
		c.rollbackTimed(t.ID, t.Log)
		if errors.Is(simErr, ErrConstraint) {
			c.countStage(&c.stats.Violations, "violation")
		}
		c.abortQueued(t, simErr, r)
		return outcomeAborted
	}
	reqs := cctx.lockRequests()
	if err := c.locks.Acquire(t.ID, reqs); err != nil {
		// Resource conflict: undo the simulation and defer (③B). A
		// cross-shard child blocked by a prepared child it outranks in
		// the global prepare order wounds the holder — otherwise two
		// shards holding each other's locks in reversed orders would both
		// sit out the prepare deadline.
		c.rollbackTimed(t.ID, t.Log)
		if t.IsChild() && c.xEnabled() {
			c.xMaybeWound(r, t, reqs)
		}
		t.Log = nil
		return outcomeConflict
	}
	// Runnable (③C): persist state+log and enqueue to phyQ atomically,
	// so a leader crash cannot strand a started transaction outside
	// phyQ or double-enqueue it. The admission is staged, and the whole
	// scheduling round's admissions ride one grouped Multi (group commit
	// of transaction admission): the group either commits in full or not
	// at all.
	//
	// A cross-shard CHILD stops at prepared instead: simulation and
	// locks are its yes-vote, and it enters phyQ only when the
	// coordinator's commit decision arrives.
	next := txn.StateStarted
	if t.IsChild() {
		c.xMarkForeign(t)
		next = txn.StatePrepared
	}
	if err := t.Transition(next); err != nil {
		c.locks.ReleaseAll(t.ID)
		c.abortQueued(t, err, r)
		return outcomeAborted
	}
	r.admitted = append(r.admitted, t)
	return outcomeRunnable
}

// admissionOps builds the persistent half of one transaction's
// admission: the started-state record write and the phyQ enqueue. A
// prepared cross-shard child persists only its record: it enters phyQ
// at decision time, not now.
func (c *Controller) admissionOps(t *txn.Txn) []store.Op {
	txnPath := c.txnPath(t.ID)
	ops := []store.Op{store.SetOp(txnPath, t.Encode(), -1)}
	if t.State != txn.StatePrepared {
		ops = append(ops, c.phyQ.PutOp(proto.PhyMsg{TxnPath: txnPath}.Encode()))
	}
	return ops
}

// admitApply applies the in-memory half of a persisted admission:
// started transactions are tracked in flight; prepared cross-shard
// children are tracked separately and their yes-vote goes out — only
// after the prepared state is durable, so a vote always implies a
// recoverable prepare.
func (c *Controller) admitApply(t *txn.Txn) {
	if t.State == txn.StatePrepared {
		c.prepared[t.ID] = t
		c.xSendVote(t)
		// Fast path: read the decision off the parent record the moment
		// the coordinator's durable decision write lands, instead of
		// waiting for a decide notice through this shard's inputQ.
		if c.xFastPath() {
			c.xWatchDecision(t)
		}
		return
	}
	c.inFlight[t.ID] = t
}

// revert undoes t's in-memory transition into its current state, whose
// write never committed, returning it to prev.
func revert(t *txn.Txn, prev txn.State) {
	if n := len(t.History); n > 0 && t.History[n-1].State == t.State {
		t.History = t.History[:n-1]
	}
	t.State = prev
}

// rollbackTimed rolls the logical layer back via the execution log,
// accumulating the §6.3 rollback-overhead metric.
func (c *Controller) rollbackTimed(id string, records []txn.LogRecord) {
	start := time.Now()
	if err := rollbackLog(c.ltree, c.cfg.Schema, records); err != nil {
		c.cfg.Logf("controller %s: logical rollback of %s: %v", c.cfg.Name, id, err)
	}
	atomic.AddInt64(&c.stats.RollbackNanos, time.Since(start).Nanoseconds())
	atomic.AddInt64(&c.stats.Rollbacks, 1)
}

// abortQueued marks a not-yet-started transaction aborted and persists
// the terminal state (③A), recording the failure's taxonomy code
// alongside its message. The terminal write is STAGED into the round —
// appended after any same-round accept write on the record, so the
// grouped flush's version checks stay intact. A nil round (a failed
// flush whose unwind could not roll a simulation back) writes it
// directly.
func (c *Controller) abortQueued(t *txn.Txn, reason error, r *round) {
	t.Error = reason.Error()
	t.Code = string(trerr.CodeOf(reason))
	t.Log = nil
	t.State = txn.StateAccepted // normalize transient deferred state
	if err := t.Transition(txn.StateAborted); err != nil {
		c.cfg.Logf("controller %s: abort %s: %v", c.cfg.Name, t.ID, err)
		return
	}
	path := c.txnPath(t.ID)
	count := func() {
		c.countStage(&c.stats.Aborted, "aborted")
		// A cross-shard child aborted before it could prepare is a NO
		// vote; it goes out only after the terminal state is durable.
		if t.IsChild() {
			c.xSendVote(t)
		}
	}
	if r != nil {
		// A failed flush reverts the transaction to accepted and requeues
		// it (see flushRound) because the abort verdict may describe
		// unwound state.
		r.stage([]store.Op{store.SetOp(path, t.Encode(), -1)}, count)
		r.aborted = append(r.aborted, t)
		return
	}
	if err := c.cli.Set(path, t.Encode(), -1); err != nil {
		c.cfg.Logf("controller %s: persist abort %s: %v", c.cfg.Name, t.ID, err)
	}
	count()
}

// stageCleanup finishes a transaction whose physical execution
// completed (Figure 2, ⑤A/⑤B): the terminal-state write, notice
// consumption, and (for commits) the commit-log entry recovery replays
// are staged into the round's grouped Multi, and the in-memory effects —
// lock release, logical rollback, inconsistency marks, counters — run
// only after the group commits, so a failed flush never rolls the
// logical layer back for a transaction whose record still says started.
func (c *Controller) stageCleanup(r *round, msg proto.InputMsg, itemPath string) error {
	if r.staged[msg.TxnPath] {
		return nil // defer to the next round; see stageAccept
	}
	rec, stat, err := c.loadTxn(msg.TxnPath)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			r.stage([]store.Op{c.inputQ.RemoveOp(itemPath)}, nil)
			return nil
		}
		return err
	}
	t, tracked := c.inFlight[rec.ID]
	if !tracked || rec.State.Terminal() {
		// A transaction this leader does not own (already finalized —
		// e.g. KILLed — or cleaned up before a failover): drop the
		// notice.
		r.stage([]store.Op{c.inputQ.RemoveOp(itemPath)}, nil)
		return nil
	}
	outcome := txn.State(msg.Outcome)
	switch outcome {
	case txn.StateCommitted, txn.StateAborted, txn.StateFailed:
	default:
		r.stage([]store.Op{c.inputQ.RemoveOp(itemPath)}, nil)
		return fmt.Errorf("result notice for %s with outcome %q", rec.ID, msg.Outcome)
	}

	rec.Error = msg.Error
	rec.Code = msg.Code
	rec.UndoneThrough = msg.UndoneThrough
	if err := rec.Transition(outcome); err != nil {
		return err
	}
	ops := []store.Op{
		c.inputQ.RemoveOp(itemPath),
		store.SetOp(msg.TxnPath, rec.Encode(), stat.Version),
	}
	if outcome == txn.StateCommitted {
		ops = append(ops, store.CreateOp(proto.CommitLogPrefix,
			proto.CommitLogEntry{TxnPath: msg.TxnPath}.Encode(), store.FlagSequence))
	}
	r.staged[msg.TxnPath] = true
	if outcome == txn.StateCommitted {
		// Early lock handoff (⑤A): a committed transaction's logical
		// effects are already final in ltree and its physical execution
		// has finished, so nothing the locks protect can still change.
		// Releasing before this round's scheduling pass lets a waiting
		// transaction's admission ride the SAME grouped commit as this
		// terminal write — the lock handoff costs zero extra store
		// rounds. If the flush fails, admissions that used the freed
		// locks were in the same failed Multi and are unwound with it,
		// and the locks return to their owner until the replayed cleanup
		// commits.
		c.locks.ReleaseAll(rec.ID)
		r.undo = append(r.undo, func() {
			reqs := lockRequestsFromLog(c.ltree, c.cfg.Schema, t.Log)
			if err := c.locks.Acquire(t.ID, reqs); err != nil {
				c.cfg.Logf("controller %s: re-lock %s after failed flush: %v", c.cfg.Name, t.ID, err)
			}
		})
		doneInline := false
		r.stage(ops, func() {
			delete(c.inFlight, rec.ID)
			c.countStage(&c.stats.Committed, "committed")
			if rec.IsChild() && !doneInline {
				c.xSendChildDone(rec)
			}
			c.maybeCheckpoint()
		})
		if rec.IsChild() {
			// A coordinator-local child's done-report can ride this same
			// round: the ledger write (and the parent's finalize, when
			// this report completes the set) joins the grouped Multi that
			// persists the child's terminal state.
			doneInline = c.stageXChildDoneLocal(r, rec)
		}
		return nil
	}
	// Aborted/failed outcomes roll the logical layer back, which must
	// not happen before the terminal state is persisted; their lock
	// releases therefore land post-flush, and the round schedules once
	// more afterwards (r.cleanups) so freed locks are claimable without
	// waiting for another input event.
	r.cleanups++
	var marks []string
	if outcome == txn.StateFailed {
		// The inconsistency marks ride the terminal write, so a failover
		// right after "failed" became visible still denies the paths (§4).
		marks = c.touchedPaths(t.Log)
		ops = append(ops, c.inconsistentMarkOps(r, marks)...)
	}
	r.stage(ops, func() { c.finishCleanup(t, rec, outcome, marks) })
	return nil
}

// finishCleanup applies the in-memory half of a persisted aborted or
// failed terminal transition (Figure 2, ⑤B); marks are the paths a
// failed transaction leaves inconsistent.
func (c *Controller) finishCleanup(t, rec *txn.Txn, outcome txn.State, marks []string) {
	delete(c.inFlight, rec.ID)
	// A cross-shard child's terminal outcome feeds the coordinator's
	// ledger (the parent finalizes when every child has reported).
	if rec.IsChild() {
		defer c.xSendChildDone(rec)
	}
	switch outcome {
	case txn.StateAborted:
		// ⑤B: physical execution failed and was fully undone; roll the
		// logical layer back too.
		c.rollbackTimed(t.ID, t.Log)
		c.countStage(&c.stats.Aborted, "aborted")
		c.locks.ReleaseAll(rec.ID)
	case txn.StateFailed:
		// Undo failed partway: the logical layer rolls back, but the
		// physical layer is only partially rolled back — a cross-layer
		// inconsistency. Mark every path the transaction wrote so
		// further transactions are denied until reconciliation (§4).
		c.rollbackTimed(t.ID, t.Log)
		for _, p := range marks {
			c.MarkInconsistent(p)
		}
		c.countStage(&c.stats.Failed, "failed")
		c.locks.ReleaseAll(rec.ID)
	}
}

// signal applies a TERM/KILL operator signal (§4).
func (c *Controller) signal(txnPath string, sig txn.Signal) error {
	rec, _, err := c.loadTxn(txnPath)
	if err != nil {
		return err
	}
	switch {
	case rec.State.Terminal():
		return nil
	case rec.State == txn.StatePrepared:
		// A prepared cross-shard child voted yes and may not abort
		// unilaterally; the client rejects these signals synchronously,
		// and one racing past that check (prepare landed in between) is
		// dropped here — the 2PC decision resolves the child either way.
		c.cfg.Logf("controller %s: dropping %s signal for prepared child %s", c.cfg.Name, sig, rec.ID)
		return nil
	case rec.State == txn.StateInitialized || rec.State == txn.StateAccepted:
		// Not started yet: mark the in-memory copy so schedule() aborts
		// it before simulation.
		for _, t := range c.todo {
			if t.ID == rec.ID {
				t.Signal = sig
				return nil
			}
		}
		// Not in todo yet (still in inputQ): persist the signal so
		// accept() sees it. The record's Signal field rides along.
		return c.updateTxn(txnPath, func(r *txn.Txn) error {
			r.Signal = sig
			return nil
		})
	case rec.State == txn.StateStarted:
		if rec.IsChild() {
			// Past the commit decision a cross-shard child MUST commit —
			// honoring a TERM/KILL here would abort one participant while
			// its siblings commit, silently breaking the transaction's
			// atomicity. The client rejects these synchronously; drop the
			// racer.
			c.cfg.Logf("controller %s: dropping %s signal for executing cross-shard child %s",
				c.cfg.Name, sig, rec.ID)
			return nil
		}
		if sig == txn.SignalTerm {
			// Graceful: ask the worker to stop and roll back; cleanup
			// happens when its aborted result arrives.
			return c.updateTxn(txnPath, func(r *txn.Txn) error {
				r.Signal = txn.SignalTerm
				return nil
			})
		}
		// KILL: abort immediately in the logical layer only. The
		// worker may still be executing; any divergence is reconciled
		// by repair later (§4).
		t, tracked := c.inFlight[rec.ID]
		if !tracked {
			return nil
		}
		delete(c.inFlight, rec.ID)
		c.rollbackTimed(t.ID, t.Log)
		c.markInconsistentFromLog(t.Log)
		c.locks.ReleaseAll(rec.ID)
		c.countStage(&c.stats.Aborted, "aborted")
		return c.updateTxn(txnPath, func(r *txn.Txn) error {
			r.Signal = txn.SignalKill
			if r.State.Terminal() {
				return nil
			}
			r.Error = "killed by operator"
			r.Code = string(trerr.TxnTerminated)
			return r.Transition(txn.StateAborted)
		})
	}
	return nil
}

// markInconsistentFromLog flags every path written by an execution log
// as inconsistent, in memory and persistently.
func (c *Controller) markInconsistentFromLog(records []txn.LogRecord) {
	for _, p := range c.touchedPaths(records) {
		c.MarkInconsistent(p)
	}
}

// inconsistentMarkOps returns the creates persisting an inconsistency
// mark for each path, for a round's grouped Multi. Marks already in the
// store, or staged earlier in the round, are skipped: creating an
// existing node would veto the whole group. Only the leader writes
// marks, so the existence check cannot go stale before the flush.
func (c *Controller) inconsistentMarkOps(r *round, paths []string) []store.Op {
	var ops []store.Op
	for _, p := range paths {
		zpath := proto.InconsistentPath + "/" + proto.EncodePath(p)
		if r.staged[zpath] {
			continue
		}
		if ok, _, err := c.cli.Exists(zpath); err != nil || ok {
			continue // present, or left to the post-flush MarkInconsistent
		}
		r.staged[zpath] = true
		ops = append(ops, store.CreateOp(zpath, nil, 0))
	}
	return ops
}

// touchedPaths lists, once each, the paths an execution log wrote.
func (c *Controller) touchedPaths(records []txn.LogRecord) []string {
	seen := make(map[string]bool)
	var paths []string
	for _, r := range records {
		def, _ := resolveDef(c.ltree, c.cfg.Schema, r)
		for _, p := range touchedPathsRecord(def, r) {
			if !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}
	return paths
}

// Reconciler handles the two §4 reconciliation mechanisms on behalf of
// the lead controller. Implementations run on the controller's event
// goroutine, serialized with scheduling, and must respect the lock
// table (no reconciliation under subtrees with in-flight transactions).
type Reconciler interface {
	// Reload performs physical→logical synchronization of the target
	// subtree.
	Reload(c *Controller, target string) error
	// Repair performs logical→physical synchronization of the target
	// subtree.
	Repair(c *Controller, target string) error
}

// Schema exposes the data model schema for reconciliation.
func (c *Controller) Schema() *model.Schema { return c.cfg.Schema }

// MarkUnusable flags a node whose reconciliation failed due to hardware
// faults; future transactions must not use it (§4).
func (c *Controller) MarkUnusable(path string) {
	if n, err := c.ltree.Get(path); err == nil {
		n.Unusable = true
	}
	zpath := proto.UnusablePath + "/" + proto.EncodePath(path)
	if _, err := c.cli.Create(zpath, nil, 0); err != nil && !errors.Is(err, store.ErrNodeExists) {
		c.cfg.Logf("controller %s: persist unusable %s: %v", c.cfg.Name, path, err)
	}
}

// ClearUnusable removes the unusable mark (e.g. after hardware
// replacement and reload).
func (c *Controller) ClearUnusable(path string) {
	if n, err := c.ltree.Get(path); err == nil {
		n.Unusable = false
	}
	zpath := proto.UnusablePath + "/" + proto.EncodePath(path)
	if err := c.cli.Delete(zpath, -1); err != nil && !errors.Is(err, store.ErrNoNode) {
		c.cfg.Logf("controller %s: clear unusable %s: %v", c.cfg.Name, path, err)
	}
}

// MarkInconsistent flags a model path as diverged between layers. The
// mark denies transactions on the node and its descendants until a
// reload/repair clears it.
func (c *Controller) MarkInconsistent(path string) {
	if n, err := c.ltree.Get(path); err == nil {
		n.Inconsistent = true
	}
	zpath := proto.InconsistentPath + "/" + proto.EncodePath(path)
	if _, err := c.cli.Create(zpath, nil, 0); err != nil && !errors.Is(err, store.ErrNodeExists) {
		c.cfg.Logf("controller %s: persist inconsistent %s: %v", c.cfg.Name, path, err)
	}
}

// ClearInconsistent removes the divergence mark after reconciliation.
func (c *Controller) ClearInconsistent(path string) {
	if n, err := c.ltree.Get(path); err == nil {
		n.Inconsistent = false
	}
	zpath := proto.InconsistentPath + "/" + proto.EncodePath(path)
	if err := c.cli.Delete(zpath, -1); err != nil && !errors.Is(err, store.ErrNoNode) {
		c.cfg.Logf("controller %s: clear inconsistent %s: %v", c.cfg.Name, path, err)
	}
}

// --- Checkpointing ----------------------------------------------------

// maybeCheckpoint folds the commit log into a fresh snapshot when
// enough commits accumulated and no transaction is in flight (the
// logical tree then contains exactly the committed state).
func (c *Controller) maybeCheckpoint() {
	// Prepared cross-shard children block checkpointing like in-flight
	// transactions: their (uncommitted) simulated effects are in the
	// tree, and a snapshot must contain exactly the committed state.
	if c.cfg.CheckpointEvery <= 0 || len(c.inFlight) > 0 || len(c.prepared) > 0 {
		return
	}
	entries, err := c.cli.Children(proto.CommitLogPath)
	if err != nil || len(entries) < c.cfg.CheckpointEvery {
		return
	}
	if err := c.checkpoint(entries); err != nil {
		c.cfg.Logf("controller %s: checkpoint: %v", c.cfg.Name, err)
	}
}

func (c *Controller) checkpoint(entries []string) error {
	data, err := c.ltree.MarshalSnapshot()
	if err != nil {
		return err
	}
	sort.Strings(entries)
	env := proto.Snapshot{Tree: data, LastCommitSeq: entries[len(entries)-1]}
	if err := c.cli.Set(proto.SnapshotPath, env.Encode(), -1); err != nil {
		return err
	}
	// Prune folded commit-log entries.
	for _, name := range entries {
		if err := c.cli.Delete(proto.CommitLogPath+"/"+name, -1); err != nil && !errors.Is(err, store.ErrNoNode) {
			return err
		}
	}
	if c.cfg.RetainTerminal > 0 {
		if err := c.gcTxnRecords(); err != nil {
			return err
		}
	}
	c.gcIdempotencyClaims()
	return nil
}

// gcTxnRecords deletes the oldest terminal transaction records beyond
// the retention bound. Safe only after a checkpoint: the records'
// effects are folded into the snapshot, so recovery no longer needs
// them (non-terminal records are never touched). Cross-shard records
// additionally respect the 2PC ledger across shards — see gcReapable.
func (c *Controller) gcTxnRecords() error {
	ids, err := c.cli.Children(proto.TxnsPath)
	if err != nil {
		return err
	}
	sort.Strings(ids)
	var terminal []string
	for _, id := range ids {
		rec, _, err := c.loadTxn(proto.TxnsPath + "/" + id)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) {
				continue
			}
			return err
		}
		if rec.State.Terminal() && c.gcReapable(rec) {
			terminal = append(terminal, id)
		}
	}
	if len(terminal) <= c.cfg.RetainTerminal {
		return nil
	}
	for _, id := range terminal[:len(terminal)-c.cfg.RetainTerminal] {
		if err := c.cli.Delete(proto.TxnsPath+"/"+id, -1); err != nil && !errors.Is(err, store.ErrNoNode) {
			return err
		}
	}
	return nil
}

// gcIdempotencyClaims sweeps idempotency entries past the configured
// TTL: unresolved claims whose submitter died between claiming the key
// and registering its transaction, and resolved key→txn mappings old
// enough that any retry storm has surely passed (their transaction
// record is typically GC'd by then anyway). Deletes are version-checked
// so a racing re-claim of the key is never clobbered; failures are
// ignored — the next checkpoint sweeps again.
func (c *Controller) gcIdempotencyClaims() {
	ttl := c.cfg.IdempotencyTTL
	if ttl <= 0 {
		return
	}
	keys, err := c.cli.Children(proto.IdempotencyPath)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-ttl)
	for _, key := range keys {
		path := proto.IdempotencyPath + "/" + key
		data, stat, err := c.cli.Get(path)
		if err != nil {
			continue
		}
		var ent struct {
			ClaimedAt time.Time `json:"claimedAt"`
		}
		if json.Unmarshal(data, &ent) != nil || ent.ClaimedAt.IsZero() {
			continue
		}
		if ent.ClaimedAt.After(cutoff) {
			continue
		}
		_ = c.cli.Delete(path, stat.Version)
	}
}

// --- Recovery (§2.3) --------------------------------------------------

// recover rebuilds the leader's in-memory state from persistent storage:
// logical tree = snapshot + commit-log replay + re-simulation of
// in-flight transactions; lock table = write sets of in-flight
// transactions; todoQ = accepted (and orphaned initialized) records in
// submission order.
func (c *Controller) recover() error {
	c.locks = lock.NewManager()
	c.inFlight = make(map[string]*txn.Txn)
	c.prepared = make(map[string]*txn.Txn)
	c.todo = nil
	c.resched, c.replay = false, 0

	// 1. Base snapshot.
	data, _, err := c.cli.Get(proto.SnapshotPath)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			return errors.New("no model snapshot: platform was never bootstrapped")
		}
		return err
	}
	env, err := proto.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	c.ltree, err = model.UnmarshalSnapshot(env.Tree)
	if err != nil {
		return err
	}

	// 2. Replay committed transactions newer than the snapshot, in
	// commit order.
	entries, err := c.cli.Children(proto.CommitLogPath)
	if err != nil {
		return err
	}
	sort.Strings(entries)
	for _, name := range entries {
		if env.LastCommitSeq != "" && name <= env.LastCommitSeq {
			continue
		}
		edata, _, err := c.cli.Get(proto.CommitLogPath + "/" + name)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) {
				continue
			}
			return err
		}
		entry, err := proto.DecodeCommitLogEntry(edata)
		if err != nil {
			return err
		}
		rec, _, err := c.loadTxn(entry.TxnPath)
		if err != nil {
			return err
		}
		if err := replayLog(c.ltree, c.cfg.Schema, rec.Log); err != nil {
			return fmt.Errorf("replay committed %s: %w", rec.ID, err)
		}
	}

	// 3. Restore inconsistency and unusable marks.
	marks, err := c.cli.Children(proto.InconsistentPath)
	if err != nil {
		return err
	}
	for _, name := range marks {
		if n, err := c.ltree.Get(proto.DecodePath(name)); err == nil {
			n.Inconsistent = true
		}
	}
	marks, err = c.cli.Children(proto.UnusablePath)
	if err != nil {
		return err
	}
	for _, name := range marks {
		if n, err := c.ltree.Get(proto.DecodePath(name)); err == nil {
			n.Unusable = true
		}
	}

	// 4. Scan transaction records.
	ids, err := c.cli.Children(proto.TxnsPath)
	if err != nil {
		return err
	}
	sort.Strings(ids)
	var xParents, xInDoubt []*txn.Txn
	for _, id := range ids {
		path := proto.TxnsPath + "/" + id
		rec, _, err := c.loadTxn(path)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) {
				continue
			}
			return err
		}
		if rec.IsParent() {
			// Cross-shard parents never enter todoQ; the coordinator
			// resumes them once local state is rebuilt.
			if !rec.State.Terminal() {
				xParents = append(xParents, rec)
			}
			continue
		}
		switch rec.State {
		case txn.StateInitialized:
			// The old leader may have consumed the submit notice without
			// accepting; re-accept directly. A still-pending submit
			// notice becomes a harmless duplicate.
			if err := rec.Transition(txn.StateAccepted); err == nil {
				if err := c.cli.Set(path, rec.Encode(), -1); err != nil {
					return err
				}
				c.countStage(&c.stats.Accepted, "accepted")
				c.todo = append(c.todo, rec)
			}
		case txn.StateAccepted, txn.StateDeferred:
			rec.State = txn.StateAccepted
			c.todo = append(c.todo, rec)
		case txn.StateStarted:
			// Re-apply the simulated effects and re-take the locks; the
			// worker will (or already did) deliver a result notice.
			if err := replayLog(c.ltree, c.cfg.Schema, rec.Log); err != nil {
				return fmt.Errorf("replay in-flight %s: %w", rec.ID, err)
			}
			reqs := lockRequestsFromLog(c.ltree, c.cfg.Schema, rec.Log)
			if err := c.locks.Acquire(rec.ID, reqs); err != nil {
				return fmt.Errorf("re-lock in-flight %s: %w", rec.ID, err)
			}
			c.inFlight[rec.ID] = rec
		case txn.StatePrepared:
			// An in-doubt cross-shard child: re-apply its simulation and
			// re-take its locks exactly like a started transaction, then
			// resolve it against the coordinator record below.
			if err := replayLog(c.ltree, c.cfg.Schema, rec.Log); err != nil {
				return fmt.Errorf("replay prepared %s: %w", rec.ID, err)
			}
			reqs := lockRequestsFromLog(c.ltree, c.cfg.Schema, rec.Log)
			if err := c.locks.Acquire(rec.ID, reqs); err != nil {
				return fmt.Errorf("re-lock prepared %s: %w", rec.ID, err)
			}
			c.prepared[rec.ID] = rec
			xInDoubt = append(xInDoubt, rec)
		}
	}
	// Resolve in-doubt prepares against their coordinator records in a
	// round of their own, flushed BEFORE the scheduling pass, so locks
	// released by abort decisions are immediately claimable; then resume
	// coordination of local parents.
	r := newRound(0)
	for _, rec := range xInDoubt {
		c.xResolveInDoubt(r, rec)
	}
	if err := c.flushRound(r); err != nil && errFatal(err) {
		return err
	}
	for _, rec := range xParents {
		c.xRecoverParent(rec)
	}
	if err := c.schedule(); err != nil && errFatal(err) {
		return err
	}
	c.cfg.Logf("controller %s: recovered %d in-flight, %d prepared, %d queued, model %d nodes",
		c.cfg.Name, len(c.inFlight), len(c.prepared), len(c.todo), c.ltree.Size())
	return nil
}

// --- Store helpers ----------------------------------------------------

func (c *Controller) txnPath(id string) string {
	if strings.HasPrefix(id, proto.TxnsPath) {
		return id
	}
	return proto.TxnsPath + "/" + id
}

func (c *Controller) loadTxn(path string) (*txn.Txn, store.Stat, error) {
	data, stat, err := c.cli.Get(path)
	if err != nil {
		return nil, stat, err
	}
	rec, err := txn.Decode(data)
	if err != nil {
		return nil, stat, err
	}
	// The record's identity is its store node name; fill it in so
	// submitters don't need a second write after sequence allocation.
	rec.ID = path[strings.LastIndexByte(path, '/')+1:]
	return rec, stat, nil
}

// updateTxn applies a mutation to a transaction record with
// compare-and-set retry, so concurrent controller/worker updates never
// lose writes.
func (c *Controller) updateTxn(path string, mutate func(*txn.Txn) error) error {
	for i := 0; i < 64; i++ {
		rec, stat, err := c.loadTxn(path)
		if err != nil {
			return err
		}
		if err := mutate(rec); err != nil {
			return err
		}
		err = c.cli.Set(path, rec.Encode(), stat.Version)
		if err == nil {
			return nil
		}
		if !errors.Is(err, store.ErrBadVersion) {
			return err
		}
	}
	return fmt.Errorf("controller: update %s: too many CAS conflicts", path)
}

// LogicalTree exposes the leader's logical model for reconciliation and
// tests. It must only be accessed while the controller is quiescent or
// from reconciliation hooks running on the leader goroutine.
func (c *Controller) LogicalTree() *model.Tree { return c.ltree }

// LockManager exposes the leader's lock table for tests.
func (c *Controller) LockManager() *lock.Manager { return c.locks }

// Client exposes the controller's store client for platform plumbing.
func (c *Controller) Client() *store.Client { return c.cli }
