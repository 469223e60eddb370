package controller

// Cross-shard two-phase commit (2PC). A submission whose resource roots
// hash to different shards is split by the client into one PARENT
// record on the coordinator shard (the lowest-numbered participant)
// plus one CHILD per participant shard. The coordinator shard's lead
// controller drives the protocol over the shards' independent
// coordination stores:
//
//	accept parent  → create child records + prepare notices on every
//	                 participant (one grouped Multi per shard)
//	participants   → simulate the full procedure, acquire locks, persist
//	                 state "prepared" (vote yes) or abort (vote no), and
//	                 report the vote to the coordinator's inputQ
//	coordinator    → all votes in: write the durable COMMIT/ABORT
//	                 decision into the parent record (state "deciding"),
//	                 then deliver it to every prepared child
//	participants   → commit: prepared → started + phyQ (physical
//	                 execution of the child's own-shard actions);
//	                 abort: roll back, release locks
//	coordinator    → all children terminal: finalize the parent
//	                 (committed iff every child committed)
//
// Crash safety: the decision lives in the parent record, which each
// shard's store persists and replays like any znode, so a participant
// leader elected after a crash resolves its in-doubt prepared children
// by reading the coordinator record (xResolveInDoubt), and a
// coordinator leader resumes undecided or undelivered parents from its
// record scan (xRecoverParent). An undecided parent past its prepare
// deadline is aborted with xshard.indoubt_timeout — the standard 2PC
// presumed-abort escape hatch — so crashed participants can never
// strand locks on the survivors.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/lock"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/tropic/trerr"
)

// XShardConfig wires a controller into the cross-shard transaction
// layer. Nil disables it: parents and 2PC messages are then rejected
// (the PR-4 single-shard-only ablation).
type XShardConfig struct {
	// Self is this controller's shard index.
	Self int
	// Router resolves which shard owns a resource root (foreign-action
	// marking, parent id parsing).
	Router *shard.Router
	// Connect opens a store session on another shard's ensemble. The
	// controller caches one session per peer shard and closes them with
	// its own.
	Connect func(shard int) *store.Client
	// PrepareTimeout bounds how long an undecided parent may wait for
	// participant votes before the coordinator aborts it
	// (xshard.indoubt_timeout). It also paces re-delivery of decisions
	// to children that have not reported terminal. 0 selects
	// DefaultPrepareTimeout.
	PrepareTimeout time.Duration
	// Hook, when non-nil, observes coordinator protocol milestones
	// ("prepare_sent" after the prepare fan-out, "decided" after the
	// durable decision write). Chaos tests use it to crash the leader at
	// exact protocol points; nil in production.
	Hook func(event, parentID string)
	// FastPath enables the coalesced 2PC message flow: coordinator-local
	// children skip the cross-store prepare round, participants read
	// decisions off the (watched) parent record instead of waiting for
	// decide notices, and per-peer sends batch into one Multi per round.
	// Off is the slow-path ablation: every message takes its own store
	// round trip, exactly the pre-fast-path flow. Correctness is
	// identical either way — the fast path only changes how (and how
	// often) messages travel, never what is durable; both arms prepare
	// children in the deterministic global order with wound-wait.
	FastPath bool
}

// DefaultPrepareTimeout is the default vote-collection deadline.
const DefaultPrepareTimeout = 10 * time.Second

// Coordinator protocol events delivered to XShardConfig.Hook.
const (
	XEventPrepareSent = "prepare_sent"
	XEventDecided     = "decided"
)

// xEnabled reports whether this controller participates in cross-shard
// transactions.
func (c *Controller) xEnabled() bool { return c.cfg.XShard != nil }

// xFastPath reports whether the coalesced 2PC message flow is on.
func (c *Controller) xFastPath() bool { return c.xEnabled() && c.cfg.XShard.FastPath }

// xTimeoutDur returns the resolved prepare deadline.
func (c *Controller) xTimeoutDur() time.Duration {
	if c.cfg.XShard.PrepareTimeout > 0 {
		return c.cfg.XShard.PrepareTimeout
	}
	return DefaultPrepareTimeout
}

// xHook fires a coordinator protocol event.
func (c *Controller) xHook(event, parentID string) {
	if c.cfg.XShard != nil && c.cfg.XShard.Hook != nil {
		c.cfg.XShard.Hook(event, parentID)
	}
}

// xPeer returns a (cached) store session on shard i's ensemble — the
// controller's own session for its own shard, so a Kill()ed controller
// loses its cross-shard reach exactly like its local one.
func (c *Controller) xPeer(i int) (*store.Client, error) {
	x := c.cfg.XShard
	if x == nil {
		return nil, errors.New("controller: cross-shard transactions not configured")
	}
	if i == x.Self {
		return c.cli, nil
	}
	c.xmu.Lock()
	defer c.xmu.Unlock()
	if c.killed.Load() {
		return nil, errors.New("controller: killed")
	}
	if cli, ok := c.xpeers[i]; ok {
		return cli, nil
	}
	if x.Connect == nil {
		return nil, fmt.Errorf("controller: no connector for peer shard %d", i)
	}
	cli := x.Connect(i)
	if cli == nil {
		return nil, fmt.Errorf("controller: cannot connect to peer shard %d", i)
	}
	if c.xpeers == nil {
		c.xpeers = make(map[int]*store.Client)
	}
	c.xpeers[i] = cli
	return cli, nil
}

// xKillPeers simulates the crash of this controller's cross-shard
// sessions alongside its own.
func (c *Controller) xKillPeers() {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	c.xStopTimersLocked()
	for _, cli := range c.xpeers {
		cli.Kill()
	}
}

// xClosePeers releases cached peer sessions.
func (c *Controller) xClosePeers() {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	c.xStopTimersLocked()
	for i, cli := range c.xpeers {
		cli.Close()
		delete(c.xpeers, i)
	}
}

// xStopTimersLocked stops every pending prepare-deadline timer and
// refuses new ones: a stopped controller must not stay reachable, and
// the deadlines it armed are re-armed by whichever leader recovers the
// parents. Caller holds c.xmu.
func (c *Controller) xStopTimersLocked() {
	c.xStopped = true
	for tm := range c.xTimers {
		tm.Stop()
	}
	c.xTimers = nil
}

// xEnqueue appends one inputQ item on the given session (a peer shard's
// queue, or this shard's own for self-addressed deadline checks).
func xEnqueue(cli *store.Client, msg proto.InputMsg) error {
	_, err := cli.Create(proto.InputQPath+"/"+queue.ItemPrefix, msg.Encode(), store.FlagSequence)
	return err
}

// peerSend is one staged cross-shard send: the ops of one logical
// message (or one message group, e.g. a child record plus its prepare
// notice) and its error disposition. onErr must tolerate a nil client
// (the peer was unreachable at flush time).
type peerSend struct {
	ops   []store.Op
	onErr func(cli *store.Client, err error)
}

// xPeerSend dispatches ops to shard i's store. Mid-round (the leader
// processing an event round) the send is staged, so every message bound
// for one peer this round — several parents' prepares, decisions, votes
// — rides a single Multi through that peer's batcher at round end.
// Outside a round (recovery, deadline timers) it goes out immediately,
// asynchronously through the session's batcher, never blocking the
// caller on the peer's quorum latency. Failures route to onErr (or the
// log): every cross-shard message has a recovery backstop (the
// coordinator's direct ledger sync, the prepare deadline, participant
// in-doubt resolution), so a lost message costs latency, never
// correctness.
func (c *Controller) xPeerSend(i int, what string, onErr func(cli *store.Client, err error), ops ...store.Op) {
	if onErr == nil {
		onErr = func(_ *store.Client, err error) {
			c.cfg.Logf("controller %s: %s: %v", c.cfg.Name, what, err)
		}
	}
	cli, err := c.xPeer(i)
	if err != nil {
		onErr(nil, err)
		return
	}
	if c.peerCollect {
		if c.peerSends == nil {
			c.peerSends = make(map[int][]peerSend)
		}
		c.peerSends[i] = append(c.peerSends[i], peerSend{ops: ops, onErr: onErr})
		return
	}
	ch := cli.MultiAsync(ops...)
	go func() {
		if err := <-ch; err != nil {
			onErr(cli, err)
		}
	}()
}

// xSendMsg stages one inputQ item for shard i (the common peerSend
// shape: votes, child-dones, decisions).
func (c *Controller) xSendMsg(i int, msg proto.InputMsg, what string) {
	c.xPeerSend(i, what, nil,
		store.CreateOp(proto.InputQPath+"/"+queue.ItemPrefix, msg.Encode(), store.FlagSequence))
}

// xFlushPeerSends commits every send staged during the round, one
// grouped Multi per peer shard. A failed group degrades to per-message
// sends so one bad op (a prepare's ErrNodeExists on a coordinator
// retry) cannot veto the rest of its peer's traffic.
func (c *Controller) xFlushPeerSends() {
	sends := c.peerSends
	c.peerSends = nil
	for i, group := range sends {
		cli, err := c.xPeer(i)
		if err != nil {
			for _, s := range group {
				s.onErr(nil, err)
			}
			continue
		}
		var ops []store.Op
		for _, s := range group {
			ops = append(ops, s.ops...)
		}
		c.met.xPeerBatch.Observe(float64(len(ops)))
		group := group
		ch := cli.MultiAsync(ops...)
		go func() {
			if err := <-ch; err == nil {
				return
			}
			for _, s := range group {
				s := s
				sch := cli.MultiAsync(s.ops...)
				go func() {
					if err := <-sch; err != nil {
						s.onErr(cli, err)
					}
				}()
			}
		}()
	}
}

// --- Coordinator ------------------------------------------------------

// stageXAcceptParent accepts a cross-shard parent submission and starts
// the prepare phase: the accepted transition and notice consumption ride
// the round's grouped Multi, and the prepare fan-out (cross-store writes
// that cannot join this shard's Multi) runs after the flush lands, along
// with arming the vote-collection deadline.
func (c *Controller) stageXAcceptParent(r *round, rec *txn.Txn, stat store.Stat, msg proto.InputMsg, itemPath string) error {
	if err := rec.Transition(txn.StateAccepted); err != nil {
		return err
	}
	if !c.xEnabled() {
		// A parent record on a platform without the cross-shard layer can
		// never execute; abort it instead of wedging the queue head.
		c.cfg.Logf("controller %s: parent %s without cross-shard config, aborting", c.cfg.Name, rec.ID)
		rec.Error = "platform is not configured for cross-shard transactions"
		rec.Code = string(trerr.XShardPrepareFailed)
		if err := rec.Transition(txn.StateAborted); err != nil {
			return err
		}
	}
	ops := []store.Op{
		c.inputQ.RemoveOp(itemPath),
		store.SetOp(msg.TxnPath, rec.Encode(), stat.Version),
	}
	r.staged[msg.TxnPath] = true
	if !c.xEnabled() {
		r.stage(ops, nil)
		return nil
	}
	var localKid *txn.Txn
	if c.xFastPath() {
		for k, ref := range rec.Children {
			if ref.Shard != c.cfg.XShard.Self {
				continue
			}
			// Coordinator-local coalescing: the child this shard owns
			// skips the cross-store prepare round entirely — its record
			// rides the SAME grouped Multi as the parent's accept, and it
			// joins todoQ post-flush so the round's follow-up scheduling
			// pass can prepare it. A 2-shard transaction thus pays one
			// remote prepare, not two.
			localKid = c.xBuildChild(rec, k)
			localKid.ID = ref.ID
			ops = append(ops, store.CreateOp(proto.TxnsPath+"/"+ref.ID, localKid.Encode(), 0))
			break
		}
	}
	r.stage(ops, func() {
		c.countStage(&c.stats.Accepted, "accepted")
		if localKid != nil {
			// The durable record says initialized — recovery re-accepts
			// initialized records, so a crash here loses nothing. In
			// memory it is accepted directly; no submit notice exists.
			if err := localKid.Transition(txn.StateAccepted); err == nil {
				c.todo = append(c.todo, localKid)
				c.resched = true
				c.met.xLocalKids.Inc()
				c.countStage(&c.stats.Accepted, "accepted")
			}
		}
		c.xStartPrepares(rec, localKid != nil)
	})
	return nil
}

// xStartPrepares fans the prepare phase out to every participant and
// arms the vote-collection deadline. Called with the parent's accepted
// state already durable. skipLocal marks the coordinator-local child as
// already created (coalesced into the parent's accept); the slow path
// and recovery pass false and prepare it like any remote participant.
func (c *Controller) xStartPrepares(rec *txn.Txn, skipLocal bool) {
	c.xClockStart(rec.ID)
	for k := range rec.Children {
		if skipLocal && rec.Children[k].Shard == c.cfg.XShard.Self {
			continue
		}
		c.xSendPrepare(rec, k)
	}
	c.xHook(XEventPrepareSent, rec.ID)
	c.xArmTimeout(rec.ID)
}

// xBuildChild materializes the k'th child record of a parent: the full
// procedure invocation (every child keeps a whole-transaction view and
// simulates it all; foreign-action marking at prepare time restricts
// what it executes physically), linked back to the parent and carrying
// the participant set.
func (c *Controller) xBuildChild(parent *txn.Txn, k int) *txn.Txn {
	participants := make([]int, len(parent.Children))
	for i, ref := range parent.Children {
		participants[i] = ref.Shard
	}
	return &txn.Txn{
		Proc:         parent.Proc,
		Args:         parent.Args,
		State:        txn.StateInitialized,
		SubmittedAt:  parent.SubmittedAt,
		History:      []txn.StateStamp{{State: txn.StateInitialized, At: time.Now()}},
		Parent:       shard.FormatID(c.cfg.XShard.Self, parent.ID),
		Participants: participants,
	}
}

// xSendPrepare ships the k'th child record and its prepare notice to
// the participant shard in one grouped Multi (staged per peer mid-round,
// asynchronous through that shard's batcher otherwise — the leader never
// blocks on a peer's quorum latency). Idempotent: if the child already
// exists (coordinator retry or recovery resume), only a fresh notice is
// sent, which the participant drops if the child has moved past
// initialized. A send lost to a crash is re-driven by coordinator
// recovery or resolved by the prepare deadline.
func (c *Controller) xSendPrepare(parent *txn.Txn, k int) {
	ref := parent.Children[k]
	childPath := proto.TxnsPath + "/" + ref.ID
	notice := proto.InputMsg{Kind: proto.KindSubmit, TxnPath: childPath}
	what := fmt.Sprintf("prepare %s to shard %d", ref.ID, ref.Shard)
	c.xPeerSend(ref.Shard,
		what,
		func(cli *store.Client, err error) {
			if errors.Is(err, store.ErrNodeExists) && cli != nil {
				err = xEnqueue(cli, notice)
			}
			if err != nil {
				c.cfg.Logf("controller %s: %s: %v", c.cfg.Name, what, err)
			}
		},
		store.CreateOp(childPath, c.xBuildChild(parent, k).Encode(), 0),
		store.CreateOp(proto.InputQPath+"/"+queue.ItemPrefix, notice.Encode(), store.FlagSequence),
	)
}

// xArmTimeout schedules a deadline check for a parent into this shard's
// own inputQ. The check is processed by whichever controller leads when
// it fires (the enqueue is just a store write), so a deadline armed by
// a leader that later crashed still protects the transaction.
func (c *Controller) xArmTimeout(parentID string) {
	path := c.txnPath(parentID)
	c.xmu.Lock()
	defer c.xmu.Unlock()
	if c.xStopped {
		return
	}
	var tm *time.Timer
	tm = time.AfterFunc(c.xTimeoutDur(), func() {
		c.xmu.Lock()
		delete(c.xTimers, tm)
		c.xmu.Unlock()
		if c.killed.Load() {
			return
		}
		// Free local read before the store write: a parent that
		// finalized long ago (the overwhelmingly common case) costs no
		// inputQ commit. Any read failure other than a reaped record
		// falls through to the enqueue — the deadline check errs toward
		// firing.
		data, _, err := c.cli.Get(path)
		switch {
		case errors.Is(err, store.ErrNoNode):
			return // record already reaped: long terminal
		case err == nil:
			if rec, derr := txn.Decode(data); derr == nil && rec.State.Terminal() {
				return
			}
		}
		if err := xEnqueue(c.cli, proto.InputMsg{Kind: proto.KindXTimeout, TxnPath: path}); err != nil {
			c.cfg.Logf("controller %s: arm xshard timeout for %s: %v", c.cfg.Name, parentID, err)
		}
	})
	if c.xTimers == nil {
		c.xTimers = make(map[*time.Timer]struct{})
	}
	c.xTimers[tm] = struct{}{}
}

// xPhaseClock is the coordinator's in-memory phase timer for one parent
// in flight: when prepares fanned out and when the decision landed. It
// feeds the exported tropic_xshard_phase_seconds histogram; it is NOT
// persisted, so a parent coordinated across a failover simply goes
// untimed — timing is an observability aid, never a correctness input.
type xPhaseClock struct {
	prepStart time.Time
	decidedAt time.Time
}

// xClockStart stamps the prepare fan-out time for a parent, once.
func (c *Controller) xClockStart(id string) {
	c.xtMu.Lock()
	if c.xTimes == nil {
		c.xTimes = make(map[string]*xPhaseClock)
	}
	if _, ok := c.xTimes[id]; !ok {
		c.xTimes[id] = &xPhaseClock{prepStart: time.Now()}
	}
	c.xtMu.Unlock()
}

// xClockVote observes one participant's prepare round trip: fan-out to
// its first vote arriving at the coordinator.
func (c *Controller) xClockVote(id string) {
	c.xtMu.Lock()
	clk := c.xTimes[id]
	c.xtMu.Unlock()
	if clk != nil {
		c.met.xPhase.With(c.met.shard, "vote").ObserveDuration(time.Since(clk.prepStart))
	}
}

// xClockDecided closes the prepare phase: fan-out to durable decision.
func (c *Controller) xClockDecided(id string) {
	c.xtMu.Lock()
	clk := c.xTimes[id]
	if clk != nil && !clk.decidedAt.IsZero() {
		clk = nil // already timed by an earlier decide path
	} else if clk != nil {
		clk.decidedAt = time.Now()
	}
	c.xtMu.Unlock()
	if clk != nil {
		c.met.xPhase.With(c.met.shard, "prepare").ObserveDuration(clk.decidedAt.Sub(clk.prepStart))
	}
}

// xClockFinalized closes the decide phase (decision to finalized
// parent) and drops the clock entry.
func (c *Controller) xClockFinalized(id string) {
	c.xtMu.Lock()
	clk := c.xTimes[id]
	delete(c.xTimes, id)
	c.xtMu.Unlock()
	if clk != nil && !clk.decidedAt.IsZero() {
		c.met.xPhase.With(c.met.shard, "decide").ObserveDuration(time.Since(clk.decidedAt))
	}
}

// xAllVoted reports whether every child has a ledger entry (vote or
// terminal outcome).
func xAllVoted(rec *txn.Txn) bool {
	for _, ref := range rec.Children {
		if ref.State == "" {
			return false
		}
	}
	return true
}

// xAllTerminal reports whether every child's ledger entry is terminal.
func xAllTerminal(rec *txn.Txn) bool {
	for _, ref := range rec.Children {
		if !ref.State.Terminal() {
			return false
		}
	}
	return true
}

// xRecordDecision derives and records the 2PC decision from the
// parent's ledger, transitioning it to deciding. The caller persists
// the record — that write IS the durable decision. timeout marks a
// deadline-driven decision: children that never voted abort the parent
// with xshard.indoubt_timeout instead of xshard.prepare_failed.
func (c *Controller) xRecordDecision(rec *txn.Txn, timeout bool) error {
	noVote, abortVote := -1, -1
	for k, ref := range rec.Children {
		switch {
		case ref.State == "":
			if noVote == -1 {
				noVote = k
			}
		case ref.State != txn.StatePrepared:
			if abortVote == -1 {
				abortVote = k
			}
		}
	}
	switch {
	case noVote == -1 && abortVote == -1:
		rec.Decision = txn.DecisionCommit
	case abortVote >= 0:
		ref := rec.Children[abortVote]
		rec.Decision = txn.DecisionAbort
		rec.Code = string(trerr.XShardPrepareFailed)
		if ref.Code != "" {
			// Keep the participant's own classification reachable.
			rec.Error = fmt.Sprintf("child %s aborted during prepare (%s): %s", ref.ID, ref.Code, ref.Error)
		} else {
			rec.Error = fmt.Sprintf("child %s aborted during prepare: %s", ref.ID, ref.Error)
		}
	default:
		if !timeout {
			return fmt.Errorf("controller: decision for %s requested with child %s unvoted",
				rec.ID, rec.Children[noVote].ID)
		}
		rec.Decision = txn.DecisionAbort
		rec.Code = string(trerr.XShardInDoubtTimeout)
		rec.Error = fmt.Sprintf("child %s did not vote before the prepare deadline", rec.Children[noVote].ID)
		c.met.xInDoubt.Inc()
	}
	return rec.Transition(txn.StateDeciding)
}

// xFanOutDecides delivers the recorded decision to every child the
// ledger shows prepared, and an abort also to children a wound released
// (aborted voters are already terminal; started and terminal children
// have the decision already). eager marks the first fan-out, straight
// after the durable decision write: on the fast path remote
// participants are then SKIPPED — each armed a watch on the parent
// record at vote time and reads the decision off the write itself (the
// piggyback). Re-deliveries (deadline, recovery) pass eager=false and
// send real notices, covering any participant whose watch died with a
// crash.
func (c *Controller) xFanOutDecides(rec *txn.Txn, eager bool) {
	for k, ref := range rec.Children {
		// A child whose prepare a wound released waits in its todoQ with
		// no vote on the ledger; an abort must reach it there too.
		released := rec.Decision == txn.DecisionAbort && ref.State == "" && ref.Retracted > 0
		if ref.State != txn.StatePrepared && !released {
			continue
		}
		if eager && c.xFastPath() && ref.Shard != c.cfg.XShard.Self {
			continue
		}
		c.xSendDecide(rec, k)
	}
}

// xSendDecide delivers the decision for child k to its shard's inputQ —
// or, for a coordinator-local child on the fast path, straight to this
// controller's own leader loop in memory (no store round trip; a crash
// loses only the in-memory copy, and recovery's in-doubt resolution
// reads the decision off the parent record).
func (c *Controller) xSendDecide(rec *txn.Txn, k int) {
	ref := rec.Children[k]
	msg := proto.InputMsg{
		Kind:     proto.KindXDecide,
		TxnPath:  proto.TxnsPath + "/" + ref.ID,
		Decision: rec.Decision,
	}
	if rec.Decision == txn.DecisionAbort {
		msg.Error, msg.Code = rec.Error, rec.Code
	}
	if c.xFastPath() && ref.Shard == c.cfg.XShard.Self {
		if _, tracked := c.prepared[ref.ID]; !tracked && c.todoIndex(ref.ID) < 0 {
			// Already applied (e.g. the inline piggyback staged it into
			// the decision round) — a delivery would just be consumed.
			return
		}
		msg.Via = "local"
		c.enqueueLocal(msg)
		return
	}
	c.xSendMsg(ref.Shard, msg, "decide for "+ref.ID)
}

// xWatchDecision is the participant half of decision piggybacking: arm
// a watch on the coordinator's parent record and deliver the 2PC
// decision to this shard's leader loop the moment the durable decision
// write lands — the decision rides the (watched) vote-ack instead of a
// decide notice through this shard's inputQ. Best-effort: on any
// failure or after two prepare-timeout windows the goroutine exits and
// the coordinator's paced re-delivery (real notices) resolves the
// child.
func (c *Controller) xWatchDecision(t *txn.Txn) {
	x := c.cfg.XShard
	coord, parentLocal, ok := shard.ParseID(t.Parent, x.Router.Shards())
	if !ok || coord == x.Self {
		return // local children get their decision delivered in memory
	}
	cli, err := c.xPeer(coord)
	if err != nil {
		return
	}
	parentPath := proto.TxnsPath + "/" + parentLocal
	childPath := c.txnPath(t.ID)
	deadline := time.Now().Add(2 * c.xTimeoutDur())
	go func() {
		for time.Now().Before(deadline) {
			if c.killed.Load() {
				return
			}
			// Arm before reading, so a decision landing between the read
			// and the wait still fires the watch.
			w, err := cli.NodeWatch(parentPath)
			if err != nil {
				return
			}
			data, _, gerr := cli.Get(parentPath)
			if gerr != nil {
				w.Close()
				return
			}
			parent, derr := txn.Decode(data)
			if derr != nil {
				w.Close()
				return
			}
			if parent.Decision != "" {
				w.Close()
				msg := proto.InputMsg{
					Kind:     proto.KindXDecide,
					TxnPath:  childPath,
					Decision: parent.Decision,
					Via:      "ack",
				}
				if parent.Decision == txn.DecisionAbort {
					msg.Error, msg.Code = parent.Error, parent.Code
				}
				c.enqueueLocal(msg)
				return
			}
			select {
			case _, open := <-w.C():
				w.Close()
				if !open {
					return // session expired; redelivery covers us
				}
			case <-time.After(time.Until(deadline)):
				w.Close()
				return
			}
		}
	}()
}

// xFinalizeParent folds the completed ledger into the parent's own
// terminal state: committed iff every child committed; failed if any
// child failed (a cross-layer inconsistency on that shard); aborted
// otherwise. Decision-time Error/Code (prepare_failed, indoubt_timeout)
// are preserved; a post-decision physical failure adopts the child's.
func (c *Controller) xFinalizeParent(rec *txn.Txn) error {
	outcome := txn.StateCommitted
	carry := -1
	for k, ref := range rec.Children {
		switch ref.State {
		case txn.StateFailed:
			outcome = txn.StateFailed
			carry = k
		case txn.StateAborted:
			if outcome == txn.StateCommitted {
				outcome = txn.StateAborted
				if carry == -1 {
					carry = k
				}
			}
		}
	}
	if outcome != txn.StateCommitted && rec.Error == "" && carry >= 0 {
		ref := rec.Children[carry]
		rec.Error = fmt.Sprintf("child %s: %s", ref.ID, ref.Error)
		rec.Code = ref.Code
		if rec.Code == "" {
			rec.Code = string(trerr.XShardPrepareFailed)
		}
	}
	// Stats are NOT counted here: finalization may be staged into a
	// grouped Multi whose flush can fail and replay — the caller counts
	// via xCountParent only after the terminal write is durable.
	return rec.Transition(outcome)
}

// xCountParent tallies a parent's terminal outcome once its finalize
// write committed, closes the decide-phase timer, and exports the
// outcome-labeled parent counter.
func (c *Controller) xCountParent(rec *txn.Txn) {
	var outcome string
	switch rec.State {
	case txn.StateCommitted:
		c.countStage(&c.stats.Committed, "committed")
		outcome = "committed"
	case txn.StateAborted:
		c.countStage(&c.stats.Aborted, "aborted")
		outcome = "aborted"
	case txn.StateFailed:
		c.countStage(&c.stats.Failed, "failed")
		outcome = "failed"
	default:
		return
	}
	c.met.xParents.With(c.met.shard, outcome).Inc()
	c.xClockFinalized(rec.ID)
}

// xEffects describes what one ledger message (vote or child-done) did
// to a parent record and what must happen after its write is durable.
type xEffects struct {
	// changed: the record was mutated (ledger entry, decision, or
	// finalization) and must be persisted.
	changed bool
	// decided: THIS message completed the vote set; after the durable
	// decision write, fan it out and re-arm the deadline.
	decided bool
	// finalized: THIS message completed the ledger and the parent's
	// terminal transition rode the write; count it once durable.
	finalized bool
	// lateAbort: a prepared vote arrived at (or after) an abort
	// decision; its shard holds locks nobody will release unless told —
	// deliver the abort to child.
	lateAbort bool
	child     int
}

// xApplyVote folds one participant vote into the parent's ledger,
// deciding when the last vote lands and finalizing when the decision's
// children are already all terminal. ok=false consumes a malformed
// message without touching the record.
func (c *Controller) xApplyVote(rec *txn.Txn, msg proto.InputMsg) (eff xEffects, ok bool, err error) {
	k := msg.ChildIndex
	eff.child = k
	if k < 0 || k >= len(rec.Children) {
		c.cfg.Logf("controller %s: vote for %s with child index %d out of range", c.cfg.Name, rec.ID, k)
		return eff, false, nil
	}
	vote := txn.State(msg.Outcome)
	if vote != txn.StatePrepared && !vote.Terminal() {
		c.cfg.Logf("controller %s: vote for %s/%d with outcome %q", c.cfg.Name, rec.ID, k, msg.Outcome)
		return eff, false, nil
	}
	ref := &rec.Children[k]
	if vote == txn.StatePrepared && ref.Retracted > 0 && msg.Attempt <= ref.Retracted {
		// A vote from a prepare a wound retracted (xWound): the child
		// released it and votes again from its next attempt.
		return eff, true, nil
	}
	if ref.State == "" || (ref.State == txn.StatePrepared && vote.Terminal()) {
		if ref.State == "" {
			// First word from this participant: one prepare round trip.
			c.xClockVote(rec.ID)
		}
		ref.State, ref.Error, ref.Code = vote, msg.Error, msg.Code
		eff.changed = true
	}
	if rec.State == txn.StateAccepted && xAllVoted(rec) {
		if err := c.xRecordDecision(rec, false); err != nil {
			return eff, false, err
		}
		eff.decided, eff.changed = true, true
	}
	if rec.State == txn.StateDeciding && xAllTerminal(rec) {
		if err := c.xFinalizeParent(rec); err != nil {
			return eff, false, err
		}
		eff.finalized, eff.changed = true, true
	}
	if !eff.decided && vote == txn.StatePrepared && rec.Decision == txn.DecisionAbort {
		eff.lateAbort = true
	}
	return eff, true, nil
}

// xPostVote runs a vote's post-persist effects.
func (c *Controller) xPostVote(rec *txn.Txn, eff xEffects) {
	if eff.finalized {
		c.xCountParent(rec)
	}
	if eff.decided {
		c.xClockDecided(rec.ID)
		c.xHook(XEventDecided, rec.ID)
		c.xFanOutDecides(rec, true)
		c.xArmTimeout(rec.ID)
		return
	}
	if eff.lateAbort {
		// A late voter may have missed the piggybacked decision window
		// (its watch fired before the decision landed and the redelivery
		// pace is slow) — send it a real notice.
		c.xSendDecide(rec, eff.child)
	}
}

// stageXVote processes one participant vote on the coordinator: the
// ledger write (and the durable decision, when this vote completes the
// set) joins the round's grouped Multi with consuming the notice;
// fan-outs and latecomer aborts run post-flush. A second message
// touching the same parent this round stays queued for the next drain
// (the staged-path discipline shared with stageAccept).
func (c *Controller) stageXVote(r *round, msg proto.InputMsg, itemPath string) error {
	if r.staged[msg.TxnPath] {
		if itemPath == "" {
			// Local message colliding with an already-staged parent write:
			// requeue in memory for the next round (a store-queued item
			// just stays queued).
			c.enqueueLocal(msg)
		}
		return nil
	}
	rec, stat, err := c.loadTxn(msg.TxnPath)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			r.stage(c.noticeRemoveOps(itemPath), nil)
			return nil
		}
		return err
	}
	eff, ok, err := c.xApplyVote(rec, msg)
	if err != nil {
		return err
	}
	if !ok || !eff.changed {
		if itemPath == "" {
			// Nothing to persist and no notice to consume: a round without
			// ops never flushes, so run the effects directly.
			c.xPostVote(rec, eff)
			return nil
		}
		r.stage([]store.Op{c.inputQ.RemoveOp(itemPath)}, func() { c.xPostVote(rec, eff) })
		return nil
	}
	if eff.decided {
		// The final vote decided the parent: piggyback the
		// coordinator-local child's decision apply onto this same round,
		// so the durable decision write and the child's promote (or
		// abort) commit in one atomic Multi — no extra round trip.
		if err := c.stageXDecideLocal(r, rec); err != nil {
			return err
		}
	}
	r.staged[msg.TxnPath] = true
	r.stage(
		append(c.noticeRemoveOps(itemPath),
			store.SetOp(msg.TxnPath, rec.Encode(), stat.Version)),
		func() { c.xPostVote(rec, eff) },
	)
	return nil
}

// stageXDecideLocal stages the decision apply for any coordinator-local
// prepared child into the round that is about to write the parent's
// durable decision (stageXVote's decided branch). Delivery is
// Via="inline": if the shared Multi fails, the child's stage only undoes
// its in-memory transition — the vote itself replays (its notice is
// still queued) and decides, and delivers, again.
func (c *Controller) stageXDecideLocal(r *round, rec *txn.Txn) error {
	if !c.xFastPath() {
		return nil
	}
	for k := range rec.Children {
		ref := rec.Children[k]
		if ref.Shard != c.cfg.XShard.Self || ref.State != txn.StatePrepared {
			continue
		}
		if _, tracked := c.prepared[ref.ID]; !tracked {
			continue
		}
		msg := proto.InputMsg{
			Kind:     proto.KindXDecide,
			TxnPath:  proto.TxnsPath + "/" + ref.ID,
			Decision: rec.Decision,
			Via:      "inline",
		}
		if rec.Decision == txn.DecisionAbort {
			msg.Error, msg.Code = rec.Error, rec.Code
		}
		if err := c.stageXDecide(r, msg, ""); err != nil {
			return err
		}
	}
	return nil
}

// xApplyChildDone folds one terminal child outcome into the ledger and
// finalizes the parent once every child has reported.
func (c *Controller) xApplyChildDone(rec *txn.Txn, msg proto.InputMsg) (changed, finalized bool, err error) {
	k := msg.ChildIndex
	outcome := txn.State(msg.Outcome)
	if k < 0 || k >= len(rec.Children) || !outcome.Terminal() {
		c.cfg.Logf("controller %s: child-done for %s: index %d outcome %q", c.cfg.Name, rec.ID, k, msg.Outcome)
		return false, false, nil
	}
	ref := &rec.Children[k]
	if !ref.State.Terminal() {
		ref.State, ref.Error, ref.Code = outcome, msg.Error, msg.Code
		changed = true
	}
	if rec.State == txn.StateDeciding && xAllTerminal(rec) {
		if err := c.xFinalizeParent(rec); err != nil {
			return changed, false, err
		}
		changed, finalized = true, true
	}
	return changed, finalized, nil
}

// stageXChildDone records a child's terminal outcome on the coordinator:
// the ledger write (and, when it completes the set, the parent's
// terminal transition) rides the round's grouped Multi with consuming
// the notice.
func (c *Controller) stageXChildDone(r *round, msg proto.InputMsg, itemPath string) error {
	if r.staged[msg.TxnPath] {
		if itemPath == "" {
			c.enqueueLocal(msg)
		}
		return nil
	}
	rec, stat, err := c.loadTxn(msg.TxnPath)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			r.stage(c.noticeRemoveOps(itemPath), nil)
			return nil
		}
		return err
	}
	changed, finalized, err := c.xApplyChildDone(rec, msg)
	if err != nil {
		return err
	}
	if !changed {
		r.stage(c.noticeRemoveOps(itemPath), nil)
		return nil
	}
	r.staged[msg.TxnPath] = true
	var after func()
	if finalized {
		after = func() { c.xCountParent(rec) }
	}
	r.stage(
		append(c.noticeRemoveOps(itemPath),
			store.SetOp(msg.TxnPath, rec.Encode(), stat.Version)),
		after,
	)
	return nil
}

// xTimeout processes a parent deadline check: an undecided parent is
// resolved — by its ledger if every vote is actually visible (direct
// child reads cover votes whose notices were lost), by presumed abort
// otherwise — and a decided parent re-delivers its decision to children
// still outstanding, re-arming itself until the ledger completes.
func (c *Controller) xTimeout(msg proto.InputMsg, itemPath string) error {
	rec, stat, err := c.loadTxn(msg.TxnPath)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			return c.inputQ.Remove(itemPath)
		}
		return err
	}
	if rec.State.Terminal() || !rec.IsParent() {
		// Terminal (or not a parent): the deadline is moot.
		return c.inputQ.Remove(itemPath)
	}
	return c.xAdvanceParent(rec, c.xSyncLedger(rec), true, func(changed bool) error {
		if !changed {
			return c.inputQ.Remove(itemPath)
		}
		return c.cli.Multi(
			c.inputQ.RemoveOp(itemPath),
			store.SetOp(msg.TxnPath, rec.Encode(), stat.Version),
		)
	})
}

// xAdvanceParent drives a non-terminal parent as far as its ledger
// allows — decide (when every vote is in, or unconditionally on a
// deadline), finalize when every child is terminal — persists through
// the caller's closure, and runs the post-persist effects: outcome
// counting, the decided hook, decision (re-)delivery, and the next
// deadline. The single state machine behind the timeout and recovery
// paths, so they cannot diverge.
func (c *Controller) xAdvanceParent(rec *txn.Txn, changed, deadline bool, persist func(changed bool) error) error {
	decided, finalized := false, false
	if rec.State == txn.StateAccepted && (deadline || xAllVoted(rec)) {
		if err := c.xRecordDecision(rec, deadline); err != nil {
			return err
		}
		changed, decided = true, true
	}
	if rec.State == txn.StateDeciding && xAllTerminal(rec) {
		if err := c.xFinalizeParent(rec); err != nil {
			return err
		}
		changed, finalized = true, true
	}
	if err := persist(changed); err != nil {
		return err
	}
	if finalized {
		c.xCountParent(rec)
	}
	if rec.Decision != "" {
		if decided {
			c.xClockDecided(rec.ID)
			c.xHook(XEventDecided, rec.ID)
		}
		// Re-delivery to children the ledger still shows prepared; a
		// no-op once everything reported. Never eager: redelivery must
		// reach participants whose piggyback watch died with a crash.
		c.xFanOutDecides(rec, false)
	}
	if !rec.State.Terminal() {
		c.xArmTimeout(rec.ID)
	}
	return nil
}

// xSyncLedger refreshes a parent's ledger by reading child records
// directly from their shards, covering votes and outcomes whose notices
// were lost in transit. Read failures leave entries untouched — the
// message path and the next deadline remain as backstops.
func (c *Controller) xSyncLedger(rec *txn.Txn) (changed bool) {
	for k := range rec.Children {
		ref := &rec.Children[k]
		if ref.State.Terminal() {
			continue
		}
		cli, err := c.xPeer(ref.Shard)
		if err != nil {
			continue
		}
		data, _, err := cli.Get(proto.TxnsPath + "/" + ref.ID)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) && ref.State == "" &&
				rec.State == txn.StateDeciding && rec.Decision == txn.DecisionAbort {
				// The decision is abort and this child was never created
				// (its prepare send was lost): it can never prepare, so
				// record it aborted — otherwise the ledger never completes
				// and the parent re-arms its deadline forever. If the
				// prepare lands late after all, the child's vote meets the
				// abort decision and is aborted through the late-vote path.
				ref.State = txn.StateAborted
				ref.Error = "never prepared before the abort decision"
				ref.Code = string(trerr.XShardInDoubtTimeout)
				changed = true
			}
			continue
		}
		child, err := txn.Decode(data)
		if err != nil {
			continue
		}
		if child.State != txn.StatePrepared && !child.State.Terminal() {
			continue
		}
		if child.State == txn.StatePrepared && ref.Retracted > 0 && prepareAttempt(child) <= ref.Retracted {
			continue // a retracted prepare the child has yet to release
		}
		if ref.State != child.State {
			ref.State, ref.Error, ref.Code = child.State, child.Error, child.Code
			changed = true
		}
	}
	return changed
}

// --- Participant ------------------------------------------------------

// xMarkForeign assigns each of a child's log records to exactly one
// executing shard: the owner of the record's path, or the coordinator's
// child for paths no participant owns (a procedure touching a path
// outside its arguments' roots). Foreign records still simulate, lock,
// and roll back here — only physical execution is elsewhere.
func (c *Controller) xMarkForeign(t *txn.Txn) {
	x := c.cfg.XShard
	if x == nil || !t.IsChild() {
		return
	}
	coordinator := x.Self
	inPlan := make(map[int]bool, len(t.Participants))
	for _, s := range t.Participants {
		inPlan[s] = true
	}
	if len(t.Participants) > 0 {
		coordinator = t.Participants[0]
	}
	for i := range t.Log {
		owner := x.Router.RouteTarget(t.Log[i].Path)
		executes := owner == x.Self || (!inPlan[owner] && x.Self == coordinator)
		t.Log[i].Foreign = !executes
	}
}

// xSendVote reports a child's vote — its prepared or aborted state — to
// the coordinator's inputQ, or, when this shard IS the coordinator and
// the fast path is on, straight to the local leader loop in memory (the
// coordinator-local child's vote never leaves the process). Best-effort
// either way: a lost vote is recovered by the coordinator's direct
// ledger sync or, failing that, the prepare deadline.
func (c *Controller) xSendVote(t *txn.Txn) {
	x := c.cfg.XShard
	if x == nil {
		return
	}
	coord, parentLocal, ok := shard.ParseID(t.Parent, x.Router.Shards())
	if !ok {
		c.cfg.Logf("controller %s: child %s has malformed parent id %q", c.cfg.Name, t.ID, t.Parent)
		return
	}
	_, k, ok := shard.ParseChildID(t.ID)
	if !ok {
		c.cfg.Logf("controller %s: malformed child id %q", c.cfg.Name, t.ID)
		return
	}
	msg := proto.InputMsg{
		Kind:       proto.KindXVote,
		TxnPath:    proto.TxnsPath + "/" + parentLocal,
		ChildIndex: k,
		Outcome:    string(t.State),
		Error:      t.Error,
		Code:       t.Code,
	}
	if t.State == txn.StatePrepared {
		msg.Attempt = prepareAttempt(t)
	}
	if coord == x.Self && c.xFastPath() {
		c.enqueueLocal(msg)
		return
	}
	c.xSendMsg(coord, msg, "vote for "+t.ID)
}

// stagedVote is one coordinator-local yes-vote folded into a round's
// admissions (xStageLocalVotes): the parent record with the vote
// applied, the ledger write to stage, and the effects to run once the
// flush is durable.
type stagedVote struct {
	ops []store.Op
	rec *txn.Txn
	eff xEffects
}

// xStageLocalVotes folds the yes-vote of every coordinator-local
// prepared child in the round's admissions into the round's own Multi:
// the parent-ledger vote write commits atomically with the child's
// durable prepare, so the local vote costs no separate store commit and
// no extra leader round. Returns the applied votes keyed by child ID,
// with the ops the caller stages (the caller tracks those children
// directly and skips the message vote, then runs each vote's post-flush
// effects). A parent whose record already has a write staged in this
// round is skipped — its child votes by message — as is any parent that
// cannot be read. On a failed flush the mutated parent copies are simply
// discarded; the unwound children re-prepare and vote again.
func (c *Controller) xStageLocalVotes(r *round, pending []*txn.Txn) map[string]*stagedVote {
	if !c.xFastPath() {
		return nil
	}
	x := c.cfg.XShard
	var votes map[string]*stagedVote
	for _, t := range pending {
		if t.State != txn.StatePrepared {
			continue
		}
		coord, parentLocal, ok := shard.ParseID(t.Parent, x.Router.Shards())
		if !ok || coord != x.Self {
			continue
		}
		_, k, ok := shard.ParseChildID(t.ID)
		if !ok {
			continue
		}
		parentPath := proto.TxnsPath + "/" + parentLocal
		if r.staged[parentPath] {
			continue
		}
		rec, stat, err := c.loadTxn(parentPath)
		if err != nil {
			continue // vote by message instead
		}
		msg := proto.InputMsg{
			Kind:       proto.KindXVote,
			TxnPath:    parentPath,
			ChildIndex: k,
			Outcome:    string(t.State),
			Attempt:    prepareAttempt(t),
		}
		eff, applied, err := c.xApplyVote(rec, msg)
		if err != nil || !applied {
			continue
		}
		v := &stagedVote{rec: rec, eff: eff}
		if eff.changed {
			r.staged[parentPath] = true
			v.ops = []store.Op{store.SetOp(parentPath, rec.Encode(), stat.Version)}
		}
		if votes == nil {
			votes = make(map[string]*stagedVote)
		}
		votes[t.ID] = v
	}
	return votes
}

// xSendChildDone reports a child's terminal outcome to the coordinator
// (in memory when this shard coordinates and the fast path is on).
func (c *Controller) xSendChildDone(t *txn.Txn) {
	x := c.cfg.XShard
	if x == nil {
		return
	}
	coord, parentLocal, ok := shard.ParseID(t.Parent, x.Router.Shards())
	if !ok {
		return
	}
	_, k, ok := shard.ParseChildID(t.ID)
	if !ok {
		return
	}
	msg := proto.InputMsg{
		Kind:       proto.KindXChildDone,
		TxnPath:    proto.TxnsPath + "/" + parentLocal,
		ChildIndex: k,
		Outcome:    string(t.State),
		Error:      t.Error,
		Code:       t.Code,
	}
	if coord == x.Self && c.xFastPath() {
		c.enqueueLocal(msg)
		return
	}
	c.xSendMsg(coord, msg, "child-done for "+t.ID)
}

// stageXChildDoneLocal stages a terminal local child's child-done
// ledger write (and, when it completes the set, the parent's finalize)
// into the round that persists the child's own terminal state
// (stageCleanup's committed branch), when this shard coordinates the
// parent on the fast path. Returns true when the report was staged or
// queued — the caller then skips xSendChildDone.
func (c *Controller) stageXChildDoneLocal(r *round, t *txn.Txn) bool {
	x := c.cfg.XShard
	if x == nil || !c.xFastPath() {
		return false
	}
	coord, parentLocal, ok := shard.ParseID(t.Parent, x.Router.Shards())
	if !ok || coord != x.Self {
		return false
	}
	_, k, ok := shard.ParseChildID(t.ID)
	if !ok {
		return false
	}
	msg := proto.InputMsg{
		Kind:       proto.KindXChildDone,
		TxnPath:    proto.TxnsPath + "/" + parentLocal,
		ChildIndex: k,
		Outcome:    string(t.State),
		Error:      t.Error,
		Code:       t.Code,
	}
	if err := c.stageXChildDone(r, msg, ""); err != nil {
		c.cfg.Logf("controller %s: inline child-done for %s: %v", c.cfg.Name, t.ID, err)
		c.enqueueLocal(msg)
	}
	return true
}

// stageXDecide applies a coordinator decision to a prepared child:
// commit promotes it to started and enqueues it to phyQ (the only path
// by which a cross-shard child enters phyQ, so physical execution stays
// exactly-once); abort persists its terminal state, and only once that
// is durable rolls its simulation back and releases its locks. Either
// write rides the round's grouped Multi with consuming the notice, so
// decisions for many transactions share one store commit. A failed
// flush undoes the in-memory transition; the decision replays from its
// notice or local message.
func (c *Controller) stageXDecide(r *round, msg proto.InputMsg, itemPath string) error {
	if r.staged[msg.TxnPath] {
		if itemPath == "" {
			c.enqueueLocal(msg)
		}
		return nil
	}
	rec, stat, err := c.loadTxn(msg.TxnPath)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			r.stage(c.noticeRemoveOps(itemPath), nil)
			return nil
		}
		return err
	}
	if msg.Decision == txn.DecisionAbort && rec.State == txn.StateAccepted {
		if i := c.todoIndex(rec.ID); i >= 0 {
			// A child whose retracted prepare was released (xWound) waits in
			// todoQ again: the abort ends it there, and its terminal write
			// doubles as the no-vote that completes the parent's ledger.
			t := c.todo[i]
			c.todo = append(c.todo[:i], c.todo[i+1:]...)
			r.staged[msg.TxnPath] = true
			r.stage(c.noticeRemoveOps(itemPath), nil)
			c.abortQueued(t, xAbortReason(msg), r)
			return nil
		}
	}
	t, tracked := c.prepared[rec.ID]
	if rec.State != txn.StatePrepared || !tracked ||
		(msg.Decision != txn.DecisionCommit && msg.Decision != txn.DecisionAbort) {
		// Late or duplicate delivery (the child already moved on) or a
		// malformed decision: consume without acting. Prepared on disk
		// but untracked in memory can only mean a bug in recovery;
		// refusing to act blind keeps the store consistent.
		if rec.State == txn.StatePrepared {
			c.cfg.Logf("controller %s: decide %q for prepared child %s (tracked %v) ignored",
				c.cfg.Name, msg.Decision, rec.ID, tracked)
		}
		r.stage(c.noticeRemoveOps(itemPath), nil)
		return nil
	}
	via := t.DecisionVia
	if msg.Via != "" {
		// The decision skipped the decide-notice round trip: it rode the
		// coordinator's own event round ("local", "inline") or the
		// vote-ack watch on the parent record ("ack").
		t.DecisionVia = msg.Via
	}
	piggy := func() {
		if msg.Via != "" {
			c.met.xPiggy.Inc()
		}
	}
	if msg.Decision == txn.DecisionCommit {
		if err := t.Transition(txn.StateStarted); err != nil {
			return err
		}
		txnPath := c.txnPath(t.ID)
		r.staged[msg.TxnPath] = true
		r.stage(
			append(c.noticeRemoveOps(itemPath),
				store.SetOp(txnPath, t.Encode(), stat.Version),
				c.phyQ.PutOp(proto.PhyMsg{TxnPath: txnPath}.Encode())),
			func() {
				piggy()
				delete(c.prepared, t.ID)
				c.inFlight[t.ID] = t
			},
		)
		r.undo = append(r.undo, func() {
			revert(t, txn.StatePrepared)
			t.DecisionVia = via
		})
		return nil
	}
	reason := xAbortReason(msg)
	t.Error, t.Code = reason.Error(), string(reason.Code)
	if err := t.Transition(txn.StateAborted); err != nil {
		t.Error, t.Code = "", ""
		return err
	}
	r.staged[msg.TxnPath] = true
	r.stage(
		append(c.noticeRemoveOps(itemPath),
			store.SetOp(c.txnPath(t.ID), t.Encode(), -1)),
		func() {
			piggy()
			c.rollbackTimed(t.ID, t.Log)
			c.locks.ReleaseAll(t.ID)
			delete(c.prepared, t.ID)
			c.countStage(&c.stats.Aborted, "aborted")
			// The freed locks may unblock deferred work this round's
			// scheduling pass already skipped.
			c.resched = true
			c.xSendChildDone(t)
		},
	)
	r.undo = append(r.undo, func() {
		revert(t, txn.StatePrepared)
		t.Error, t.Code, t.DecisionVia = "", "", via
	})
	return nil
}

// xAbortReason is the error an abort decision carries to its child.
func xAbortReason(msg proto.InputMsg) *trerr.Error {
	errStr, code := msg.Error, msg.Code
	if errStr == "" {
		errStr = "cross-shard transaction aborted"
	}
	if code == "" {
		code = string(trerr.XShardPrepareFailed)
	}
	return trerr.New(trerr.Code(code), errStr)
}

// todoIndex returns the todoQ position of the transaction with the given
// id, or -1.
func (c *Controller) todoIndex(id string) int {
	for i, t := range c.todo {
		if t.ID == id {
			return i
		}
	}
	return -1
}

// --- Recovery ---------------------------------------------------------

// xResolveInDoubt resolves one recovered prepared child by consulting
// the coordinator record — the §2.3 recovery protocol extended across
// shards. A recorded decision is staged into the recovery round through
// stageXDecide, like any delivered one: commit promotes the child into
// phyQ (it was never enqueued: prepared children enter phyQ only via
// promotion, so execution stays exactly-once across the failover) and
// abort rolls it back. An undecided parent gets the vote re-sent and
// keeps the child prepared, locks held, until the coordinator decides.
func (c *Controller) xResolveInDoubt(r *round, t *txn.Txn) {
	x := c.cfg.XShard
	if x == nil {
		c.cfg.Logf("controller %s: prepared child %s without cross-shard config", c.cfg.Name, t.ID)
		return
	}
	c.met.xInDoubt.Inc()
	coord, parentLocal, ok := shard.ParseID(t.Parent, x.Router.Shards())
	if !ok {
		c.cfg.Logf("controller %s: child %s has malformed parent id %q", c.cfg.Name, t.ID, t.Parent)
		return
	}
	cli, err := c.xPeer(coord)
	if err != nil {
		c.cfg.Logf("controller %s: resolve in-doubt %s: %v", c.cfg.Name, t.ID, err)
		return
	}
	decide := func(msg proto.InputMsg) {
		msg.Kind, msg.TxnPath = proto.KindXDecide, c.txnPath(t.ID)
		if err := c.stageXDecide(r, msg, ""); err != nil {
			c.cfg.Logf("controller %s: resolve in-doubt %s: %v", c.cfg.Name, t.ID, err)
		}
	}
	data, _, err := cli.Get(proto.TxnsPath + "/" + parentLocal)
	if errors.Is(err, store.ErrNoNode) {
		// A prepared child always has a coordinator record (the parent is
		// created before any child and outlives them all); a missing one
		// is unreachable state — abort rather than hold locks forever.
		c.cfg.Logf("controller %s: in-doubt child %s has no coordinator record %s; aborting",
			c.cfg.Name, t.ID, t.Parent)
		decide(proto.InputMsg{Decision: txn.DecisionAbort, Error: "coordinator record missing",
			Code: string(trerr.XShardPrepareFailed)})
		return
	}
	if err != nil {
		// Coordinator shard unreachable: stay prepared, re-vote so a
		// recovered coordinator sees us, and let its deadline decide.
		c.cfg.Logf("controller %s: resolve in-doubt %s: %v", c.cfg.Name, t.ID, err)
		c.xSendVote(t)
		return
	}
	parent, err := txn.Decode(data)
	if err != nil {
		c.cfg.Logf("controller %s: decode coordinator record for %s: %v", c.cfg.Name, t.ID, err)
		return
	}
	switch parent.Decision {
	case txn.DecisionCommit:
		decide(proto.InputMsg{Decision: txn.DecisionCommit})
	case txn.DecisionAbort:
		decide(proto.InputMsg{Decision: txn.DecisionAbort, Error: parent.Error, Code: parent.Code})
	default:
		if _, k, ok := shard.ParseChildID(t.ID); ok && k < len(parent.Children) &&
			parent.Children[k].Retracted >= prepareAttempt(t) {
			// A wound retracted this prepare's vote before the old leader
			// released it: release it now.
			if err := c.stageXRelease(r, t); err != nil {
				c.cfg.Logf("controller %s: resolve in-doubt %s: %v", c.cfg.Name, t.ID, err)
			}
			return
		}
		// Undecided: hold the prepare (locks and all) and re-vote — the
		// old leader's vote may never have left this shard. On the fast
		// path, re-arm the decision watch too (the old leader's died with
		// it); the coordinator skips the eager decide notice assuming a
		// watch exists.
		c.xSendVote(t)
		if c.xFastPath() {
			c.xWatchDecision(t)
		}
	}
}

// xRecoverParent resumes coordination of a non-terminal parent after a
// leader change: re-sending prepares that may never have landed,
// syncing the ledger from direct child reads, (re)recording the
// decision when complete, re-delivering it, and re-arming the deadline.
// Failures are logged, never fatal to recovery — the armed deadline
// retries everything.
func (c *Controller) xRecoverParent(rec *txn.Txn) {
	if !c.xEnabled() {
		c.cfg.Logf("controller %s: parent %s without cross-shard config", c.cfg.Name, rec.ID)
		return
	}
	path := c.txnPath(rec.ID)
	if rec.State == txn.StateInitialized {
		// The old leader consumed (or never saw) the submit notice; a
		// pending one becomes a harmless duplicate.
		if err := rec.Transition(txn.StateAccepted); err != nil {
			c.cfg.Logf("controller %s: recover parent %s: %v", c.cfg.Name, rec.ID, err)
			return
		}
		if err := c.cli.Set(path, rec.Encode(), -1); err != nil {
			c.cfg.Logf("controller %s: recover parent %s: %v", c.cfg.Name, rec.ID, err)
			return
		}
		c.countStage(&c.stats.Accepted, "accepted")
	}
	if rec.State.Terminal() {
		return
	}
	changed := c.xSyncLedger(rec)
	if rec.State == txn.StateAccepted {
		// Re-send prepares that may never have landed; idempotent.
		for k := range rec.Children {
			if rec.Children[k].State != "" {
				continue
			}
			c.xSendPrepare(rec, k)
		}
	}
	err := c.xAdvanceParent(rec, changed, false, func(changed bool) error {
		if !changed {
			return nil
		}
		return c.cli.Set(path, rec.Encode(), -1)
	})
	if err != nil {
		c.cfg.Logf("controller %s: resume parent %s: %v", c.cfg.Name, rec.ID, err)
	}
}

// --- Deterministic prepare order & wound-wait -------------------------

// xOrderChildren sorts the cross-shard children waiting in todoQ into
// the deterministic global prepare order (shard.PrepareLess: by parent
// id, then child index), leaving single-shard work in place. Every
// participant scheduling its children in the same order makes the
// classic 2PC lock-order inversion — shard A prepares t1 then t2, shard
// B prepares t2 then t1, both stuck until the prepare deadline — simply
// not arise between transactions that are both still waiting; wound-wait
// (xMaybeWound) covers the races that slip through interleaved rounds.
func (c *Controller) xOrderChildren() {
	idx := make([]int, 0, len(c.todo))
	for i, t := range c.todo {
		if t.IsChild() {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		return
	}
	kids := make([]*txn.Txn, len(idx))
	for j, i := range idx {
		kids[j] = c.todo[i]
	}
	sort.SliceStable(kids, func(a, b int) bool {
		return shard.PrepareLess(kids[a].ID, kids[b].ID)
	})
	for j, i := range idx {
		c.todo[i] = kids[j]
	}
}

// xMaybeWound runs when a cross-shard child's lock acquisition
// conflicted: if any conflicting holder is a PREPARED child of a
// YOUNGER cross-shard transaction (later in the global prepare order),
// this is a lock-order inversion that local ordering could not prevent
// — the younger transaction won its locks on this shard before the
// older one arrived. Waiting resolves nothing (the younger one's own
// prepare may be blocked on another shard by the older one), so wound
// it: retract its vote and release its prepare here, within one
// message round instead of an indoubt-timeout window. Holders that are
// merely in-flight (already executing) finish on their own; only
// prepared holders — parked awaiting a decision — can deadlock. A
// younger holder whose prepare is staged in this very round is not
// tracked yet; the round then asks for a scheduling pass after its
// flush, so the wound is not left waiting for an input event.
func (c *Controller) xMaybeWound(r *round, t *txn.Txn, reqs []lock.Request) {
	for _, conflict := range c.locks.Conflicts(t.ID, reqs) {
		if !shard.PrepareLess(t.ID, conflict.Holder) {
			continue
		}
		if victim, ok := c.prepared[conflict.Holder]; ok {
			c.xWound(t.ID, victim)
			continue
		}
		for _, a := range r.admitted {
			if a.ID == conflict.Holder && a.State == txn.StatePrepared {
				r.stage(nil, func() { c.resched = true })
				break
			}
		}
	}
}

// prepareAttempt numbers a child's current (or latest) prepare: the
// prepared stamps in its history. A wound's retraction names the
// attempt it voids, so a vote from a released prepare can never count
// for the child's next one.
func prepareAttempt(t *txn.Txn) int {
	n := 0
	for _, st := range t.History {
		if st.State == txn.StatePrepared {
			n++
		}
	}
	return n
}

// xWound retracts the (younger) victim child's yes-vote at its
// coordinator, so the victim can release its prepare here and let the
// older transaction through: a CAS on the parent record that clears the
// victim's ledger entry and marks its current prepare attempt retracted
// (txn.ChildRef.Retracted) — only while the parent is undecided, so a
// retraction never races a commit that counted the vote (the
// coordinator's own staged writes lose the version race and replay
// against the retracted ledger). Once the retraction is durable the
// leader loop releases the prepare (stageXRetract): the child rolls
// back, frees its locks and re-enters todoQ behind the older
// transaction, preparing and voting again with its next attempt. The
// wounded transaction thus waits instead of aborting. Asynchronous and
// best-effort — a lost wound costs the prepare-deadline window, never
// correctness.
func (c *Controller) xWound(aggressor string, victim *txn.Txn) {
	x := c.cfg.XShard
	coord, parentLocal, ok := shard.ParseID(victim.Parent, x.Router.Shards())
	if !ok {
		return
	}
	_, k, ok := shard.ParseChildID(victim.ID)
	if !ok {
		return
	}
	attempt := prepareAttempt(victim)
	release := proto.InputMsg{Kind: proto.KindXRetract, TxnPath: c.txnPath(victim.ID), Attempt: attempt}
	parentPath := proto.TxnsPath + "/" + parentLocal
	c.wmu.Lock()
	if c.wounding == nil {
		c.wounding = make(map[string]bool)
	}
	if c.wounding[parentPath] {
		c.wmu.Unlock()
		return // a wound for this parent is already in flight
	}
	c.wounding[parentPath] = true
	c.wmu.Unlock()
	unmark := func() {
		c.wmu.Lock()
		delete(c.wounding, parentPath)
		c.wmu.Unlock()
	}
	cli, err := c.xPeer(coord)
	if err != nil {
		unmark()
		return
	}
	go func() {
		defer unmark()
		for try := 0; try < 8; try++ {
			if c.killed.Load() {
				return
			}
			data, stat, err := cli.Get(parentPath)
			if err != nil {
				return
			}
			parent, err := txn.Decode(data)
			if err != nil {
				return
			}
			if parent.Decision != "" || parent.State != txn.StateAccepted || k >= len(parent.Children) {
				return // already decided (or deciding); nothing to wound
			}
			ref := &parent.Children[k]
			if ref.Retracted >= attempt {
				// Retracted already (an earlier wound whose release was
				// lost with a failed round): just release.
				c.enqueueLocal(release)
				return
			}
			ref.State, ref.Error, ref.Code = "", "", ""
			ref.Retracted = attempt
			parent.ID = parentLocal
			err = cli.Set(parentPath, parent.Encode(), stat.Version)
			if err == nil {
				c.met.xWounds.Inc()
				c.cfg.Logf("controller %s: %s wounded %s (prepare attempt %d retracted)",
					c.cfg.Name, aggressor, victim.ID, attempt)
				c.enqueueLocal(release)
				return
			}
			if !errors.Is(err, store.ErrBadVersion) {
				return
			}
			// Lost a CAS race (a vote landed, or the coordinator decided);
			// re-read and re-check.
		}
	}()
}

// stageXRetract releases a prepared child whose vote a wound retracted
// at the coordinator (xWound). A message for an attempt that is no
// longer the child's live prepare — it was decided meanwhile, or is
// already released and prepared again — is dropped.
func (c *Controller) stageXRetract(r *round, msg proto.InputMsg) error {
	if r.staged[msg.TxnPath] {
		c.enqueueLocal(msg)
		return nil
	}
	t, tracked := c.prepared[msg.TxnPath[strings.LastIndexByte(msg.TxnPath, '/')+1:]]
	if !tracked || t.State != txn.StatePrepared || prepareAttempt(t) != msg.Attempt {
		return nil
	}
	return c.stageXRelease(r, t)
}

// stageXRelease returns a prepared child whose vote is retracted to
// initialized and re-accepts it, persisted with its simulation dropped
// in the round's grouped Multi; once that write is durable its
// simulation rolls back, its locks free and it rejoins todoQ to prepare
// again. A failed flush undoes the transitions and the child stays
// prepared (its retracted vote still cannot count) until the release
// replays.
func (c *Controller) stageXRelease(r *round, t *txn.Txn) error {
	if err := t.Transition(txn.StateInitialized); err != nil {
		return err
	}
	if err := t.Transition(txn.StateAccepted); err != nil {
		revert(t, txn.StatePrepared)
		return err
	}
	logs := t.Log
	t.Log = nil
	path := c.txnPath(t.ID)
	r.staged[path] = true
	r.stage([]store.Op{store.SetOp(path, t.Encode(), -1)}, func() {
		c.rollbackTimed(t.ID, logs)
		c.locks.ReleaseAll(t.ID)
		delete(c.prepared, t.ID)
		c.todo = append(c.todo, t)
		c.resched = true
	})
	r.undo = append(r.undo, func() {
		revert(t, txn.StateInitialized)
		revert(t, txn.StatePrepared)
		t.Log = logs
	})
	return nil
}

// gcReapable guards the terminal-record sweep against breaking 2PC
// recovery: a PARENT may be reaped only once every ledger entry is
// terminal (children still resolve their in-doubt state by reading it),
// and a CHILD only once its parent is terminal or gone (an in-flight
// parent's ledger sync still reads child records directly). Peer-read
// failures err toward keeping the record — the next checkpoint retries.
func (c *Controller) gcReapable(rec *txn.Txn) bool {
	if rec.IsParent() {
		if !c.xEnabled() {
			// The unconfigured-platform abort path leaves an empty ledger.
			return true
		}
		return xAllTerminal(rec)
	}
	if !rec.IsChild() {
		return true
	}
	x := c.cfg.XShard
	if x == nil {
		return true
	}
	coord, parentLocal, ok := shard.ParseID(rec.Parent, x.Router.Shards())
	if !ok {
		return true
	}
	cli, err := c.xPeer(coord)
	if err != nil {
		return false
	}
	data, _, err := cli.Get(proto.TxnsPath + "/" + parentLocal)
	if errors.Is(err, store.ErrNoNode) {
		return true // parent already reaped: its ledger completed
	}
	if err != nil {
		return false
	}
	parent, err := txn.Decode(data)
	if err != nil {
		return false
	}
	return parent.State.Terminal()
}
