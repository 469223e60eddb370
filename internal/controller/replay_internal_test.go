package controller

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

// replayRig drives one leader's rounds by hand, playing the worker
// itself, so a test can fail a chosen round's grouped flush and watch
// the replay that follows.
type replayRig struct {
	t   *testing.T
	c   *Controller
	cli *store.Client
	// phy counts phyQ entries seen per transaction path.
	phy map[string]int
}

// newReplayRig builds a leader over counters /c0 and /c1. With sharded
// set it is shard 0 of a 2-shard fast-path platform whose shard 1 is a
// bare ensemble: it only absorbs the messages sent its way.
func newReplayRig(t *testing.T, sharded bool) *replayRig {
	t.Helper()
	schema := model.NewSchema()
	add := func(delta int64) func(*model.Tree, string, []string) error {
		return func(tree *model.Tree, path string, _ []string) error {
			n, err := tree.Get(path)
			if err != nil {
				return err
			}
			n.Attrs["value"] = n.GetInt("value") + delta
			return nil
		}
	}
	schema.Entity("counter").
		Action(&model.ActionDef{Name: "inc", Simulate: add(1), Undo: "dec"}).
		Action(&model.ActionDef{Name: "dec", Simulate: add(-1), Undo: "inc"})
	tree := model.NewTree()
	for _, p := range []string{"/c0", "/c1"} {
		if _, err := tree.Create(p, "counter", map[string]any{"value": int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	ens := store.NewEnsemble(store.Config{Replicas: 1})
	t.Cleanup(func() { _ = ens.Close() })
	cfg := Config{
		Name:     "ctrl",
		Ensemble: ens,
		Schema:   schema,
		Procedures: map[string]Procedure{
			"inc": func(c *Ctx) error { return c.Do(c.Arg(0), "inc") },
		},
		Bootstrap:   tree,
		BatchMaxOps: 32,
	}
	if sharded {
		peer := store.NewEnsemble(store.Config{Replicas: 1})
		t.Cleanup(func() { _ = peer.Close() })
		for _, p := range []string{proto.TxnsPath, proto.InputQPath} {
			cli := peer.Connect()
			if err := cli.EnsurePath(p); err != nil {
				t.Fatal(err)
			}
			cli.Close()
		}
		cfg.XShard = &XShardConfig{
			Self:           0,
			Router:         shard.NewRouter(shard.NewMap(2)),
			Connect:        func(int) *store.Client { return peer.Connect() },
			PrepareTimeout: time.Minute,
			FastPath:       true,
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.recover(); err != nil {
		t.Fatal(err)
	}
	g := &replayRig{t: t, c: c, cli: ens.Connect(), phy: make(map[string]int)}
	t.Cleanup(g.cli.Close)
	return g
}

// create writes a transaction record and returns its path.
func (g *replayRig) create(path string, rec *txn.Txn) string {
	g.t.Helper()
	p, err := g.cli.Create(path, rec.Encode(), 0)
	if err != nil {
		g.t.Fatal(err)
	}
	return p
}

// notify enqueues one inputQ message.
func (g *replayRig) notify(msg proto.InputMsg) {
	g.t.Helper()
	if err := xEnqueue(g.cli, msg); err != nil {
		g.t.Fatal(err)
	}
}

// submit creates a single-shard transaction incrementing counter and
// queues its submit notice.
func (g *replayRig) submit(counter string) string {
	g.t.Helper()
	rec := &txn.Txn{Proc: "inc", Args: []string{counter}, State: txn.StateInitialized}
	p, err := g.cli.Create(proto.TxnPrefix, rec.Encode(), store.FlagSequence)
	if err != nil {
		g.t.Fatal(err)
	}
	g.notify(proto.InputMsg{Kind: proto.KindSubmit, TxnPath: p})
	return p
}

// take drains the next round's input without blocking on an empty
// queue.
func (g *replayRig) take() ([]proto.InputMsg, []queue.Item) {
	g.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	locals, items, err := g.c.takeInput(ctx)
	if err != nil {
		g.t.Fatal(err)
	}
	return locals, items
}

// round runs one leader round end to end and reports how many items it
// drained.
func (g *replayRig) round() int {
	g.t.Helper()
	locals, items := g.take()
	if err := g.c.processRound(locals, items); err != nil {
		g.t.Fatalf("round: %v", err)
	}
	return len(locals) + len(items)
}

// failRound stages the next round exactly as processRound does, then
// bumps the version of the record at path before the flush, so the
// grouped Multi fails validation. It reports how many items the round
// drained.
func (g *replayRig) failRound(path string) int {
	g.t.Helper()
	locals, items := g.take()
	r := newRound(len(locals) + len(items))
	if err := g.c.stageRound(r, locals, items); err != nil {
		g.t.Fatal(err)
	}
	g.c.scheduleInto(r)
	data, _, err := g.cli.Get(path)
	if err != nil {
		g.t.Fatal(err)
	}
	if err := g.cli.Set(path, data, -1); err != nil {
		g.t.Fatal(err)
	}
	if err := g.c.flushRound(r); !errors.Is(err, store.ErrBadVersion) {
		g.t.Fatalf("flush after version bump: %v, want ErrBadVersion", err)
	}
	return r.drained
}

// execute plays the worker: it consumes every phyQ entry, counting
// entries per transaction, and reports each transaction committed.
func (g *replayRig) execute() {
	g.t.Helper()
	names, err := g.cli.Children(proto.PhyQPath)
	if err != nil {
		g.t.Fatal(err)
	}
	for _, name := range names {
		p := proto.PhyQPath + "/" + name
		data, _, err := g.cli.Get(p)
		if err != nil {
			g.t.Fatal(err)
		}
		msg, err := proto.DecodePhyMsg(data)
		if err != nil {
			g.t.Fatal(err)
		}
		g.phy[msg.TxnPath]++
		result := proto.InputMsg{Kind: proto.KindResult, TxnPath: msg.TxnPath, Outcome: string(txn.StateCommitted)}
		if err := g.cli.Multi(store.DeleteOp(p, -1),
			store.CreateOp(proto.InputQPath+"/"+queue.ItemPrefix, result.Encode(), store.FlagSequence)); err != nil {
			g.t.Fatal(err)
		}
	}
}

// inputQLen counts queued inputQ items.
func (g *replayRig) inputQLen() int {
	g.t.Helper()
	names, err := g.cli.Children(proto.InputQPath)
	if err != nil {
		g.t.Fatal(err)
	}
	return len(names)
}

// quiesce runs rounds and worker passes until no input, local message,
// requeued work or phyQ entry is left.
func (g *replayRig) quiesce() {
	g.t.Helper()
	for i := 0; i < 100; i++ {
		g.execute()
		g.c.lmu.Lock()
		locals := len(g.c.localMsgs)
		g.c.lmu.Unlock()
		if g.inputQLen() == 0 && locals == 0 && !(g.c.resched && len(g.c.todo) > 0) {
			return
		}
		g.round()
	}
	g.t.Fatal("controller never quiesced")
}

// terminalOnce asserts the record at path ended in want with exactly
// one terminal stamp in its history.
func (g *replayRig) terminalOnce(path string, want txn.State) {
	g.t.Helper()
	rec, _, err := g.c.loadTxn(path)
	if err != nil {
		g.t.Fatal(err)
	}
	if rec.State != want {
		g.t.Fatalf("%s = %s (%s), want %s", path, rec.State, rec.Error, want)
	}
	terminal := 0
	for _, st := range rec.History {
		if st.State.Terminal() {
			terminal++
		}
	}
	if terminal != 1 {
		g.t.Fatalf("%s history has %d terminal stamps: %+v", path, terminal, rec.History)
	}
}

// coordParents creates two coordinator-side parent records on this
// shard, each with one child on shard 1: accepted and awaiting the
// vote, or decided commit with the child prepared.
func (g *replayRig) coordParents(decided bool) []string {
	g.t.Helper()
	var paths []string
	for i := 0; i < 2; i++ {
		local := fmt.Sprintf("t-x%09d", i)
		rec := &txn.Txn{
			Proc: "inc", Args: []string{fmt.Sprintf("/c%d", i)}, State: txn.StateInitialized,
			Children: []txn.ChildRef{{ID: shard.ChildID(shard.FormatID(0, local), 0), Shard: 1}},
		}
		if err := rec.Transition(txn.StateAccepted); err != nil {
			g.t.Fatal(err)
		}
		if decided {
			if err := rec.Transition(txn.StateDeciding); err != nil {
				g.t.Fatal(err)
			}
			rec.Decision = txn.DecisionCommit
			rec.Children[0].State = txn.StatePrepared
		}
		paths = append(paths, g.create(proto.TxnsPath+"/"+local, rec))
	}
	return paths
}

// TestFailedRoundReplaysThroughStagedHandlers fails one round's grouped
// flush for each staged message kind by bumping a staged record's
// version between staging and flush. The round must unwind, the next
// round must drain a single item, and the replay must drive every
// transaction to exactly one terminal state, with one phyQ entry per
// started transaction and no lock left behind.
func TestFailedRoundReplaysThroughStagedHandlers(t *testing.T) {
	type outcome struct {
		paths     []string // records that must end committed, exactly once
		phyQ      int      // transactions that must have entered phyQ once
		committed int64    // Stats().Committed at quiesce
	}
	cases := []struct {
		name    string
		sharded bool
		// setup queues the messages of the round to fail and returns the
		// record path to bump, plus a continuation run after the replay
		// quiesces (nil when nothing more is needed).
		setup func(g *replayRig) (bump string, after func(), want outcome)
	}{
		{"accept", false, func(g *replayRig) (string, func(), outcome) {
			p := []string{g.submit("/c0"), g.submit("/c1")}
			return p[0], nil, outcome{paths: p, phyQ: 2, committed: 2}
		}},
		{"cleanup", false, func(g *replayRig) (string, func(), outcome) {
			p := []string{g.submit("/c0"), g.submit("/c1")}
			if n := g.round(); n != 2 {
				g.t.Fatalf("admission round drained %d items, want 2", n)
			}
			g.execute() // both results queued: the failing round is two cleanups
			return p[0], nil, outcome{paths: p, phyQ: 2, committed: 2}
		}},
		{"vote", true, func(g *replayRig) (string, func(), outcome) {
			p := g.coordParents(false)
			for _, path := range p {
				g.notify(proto.InputMsg{Kind: proto.KindXVote, TxnPath: path, Outcome: string(txn.StatePrepared)})
			}
			childDone := func() {
				for _, path := range p {
					g.notify(proto.InputMsg{Kind: proto.KindXChildDone, TxnPath: path, Outcome: string(txn.StateCommitted)})
				}
				g.quiesce()
			}
			return p[0], childDone, outcome{paths: p, committed: 2}
		}},
		{"child-done", true, func(g *replayRig) (string, func(), outcome) {
			p := g.coordParents(true)
			for _, path := range p {
				g.notify(proto.InputMsg{Kind: proto.KindXChildDone, TxnPath: path, Outcome: string(txn.StateCommitted)})
			}
			return p[0], nil, outcome{paths: p, committed: 2}
		}},
		{"decide", true, func(g *replayRig) (string, func(), outcome) {
			var p []string
			for i := 0; i < 2; i++ {
				parent := shard.FormatID(1, fmt.Sprintf("t-x%09d", i))
				id := shard.ChildID(parent, 1)
				p = append(p, g.create(proto.TxnsPath+"/"+id, &txn.Txn{
					Proc: "inc", Args: []string{fmt.Sprintf("/c%d", i)}, State: txn.StateInitialized,
					Parent: parent, Participants: []int{1, 0},
				}))
				g.notify(proto.InputMsg{Kind: proto.KindSubmit, TxnPath: p[i]})
			}
			g.quiesce()
			if len(g.c.prepared) != 2 {
				g.t.Fatalf("%d children prepared, want 2", len(g.c.prepared))
			}
			for _, path := range p {
				g.notify(proto.InputMsg{Kind: proto.KindXDecide, TxnPath: path, Decision: txn.DecisionCommit})
			}
			return p[0], nil, outcome{paths: p, phyQ: 2, committed: 2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newReplayRig(t, tc.sharded)
			bump, after, want := tc.setup(g)
			locks := g.c.locks.LockCount()

			if n := g.failRound(bump); n != 2 {
				t.Fatalf("failed round drained %d items, want 2", n)
			}
			if q := g.inputQLen(); q != 2 {
				t.Fatalf("inputQ holds %d items after the failed flush, want both back", q)
			}
			if got := g.c.locks.LockCount(); got != locks {
				t.Fatalf("lock table holds %d entries after the unwind, want %d as before the round", got, locks)
			}
			if n := g.round(); n != 1 {
				t.Fatalf("first round after the failure drained %d items, want 1", n)
			}
			g.quiesce()
			if after != nil {
				after()
			}

			for _, path := range want.paths {
				g.terminalOnce(path, txn.StateCommitted)
			}
			if len(g.phy) != want.phyQ {
				t.Fatalf("phyQ entries for %d transactions, want %d: %v", len(g.phy), want.phyQ, g.phy)
			}
			for path, n := range g.phy {
				if n != 1 {
					t.Fatalf("%s entered phyQ %d times", path, n)
				}
			}
			if st := g.c.Stats(); st.Committed != want.committed || st.Aborted != 0 {
				t.Fatalf("stats committed=%d aborted=%d, want %d and 0", st.Committed, st.Aborted, want.committed)
			}
			if n := g.c.locks.LockCount(); n != 0 {
				t.Fatalf("%d locks left after quiesce:\n%s", n, g.c.locks.Dump())
			}
		})
	}
}

// TestCloseStopsPrepareDeadlines checks that Kill and Close stop the
// prepare-deadline timers a coordinator armed, and that no new ones are
// armed afterwards, so a stopped controller is not kept reachable until
// its deadlines fire.
func TestCloseStopsPrepareDeadlines(t *testing.T) {
	for _, stop := range []string{"close", "kill"} {
		t.Run(stop, func(t *testing.T) {
			g := newReplayRig(t, true)
			for i := 0; i < 3; i++ {
				g.c.xArmTimeout(fmt.Sprintf("t-%010d", i))
			}
			pending := func() int {
				g.c.xmu.Lock()
				defer g.c.xmu.Unlock()
				return len(g.c.xTimers)
			}
			if n := pending(); n != 3 {
				t.Fatalf("%d deadline timers pending, want 3", n)
			}
			if stop == "close" {
				g.c.Close()
			} else {
				g.c.Kill()
			}
			g.c.xArmTimeout("t-late")
			if n := pending(); n != 0 {
				t.Fatalf("%d deadline timers pending after %s, want 0", n, stop)
			}
		})
	}
}
