package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/tcloud"
	"repro/tropic"
	"repro/tropic/trerr"
)

// stageTolerance is how far a History stamp may fall outside the
// client's view of its transaction, or before the stamp it follows.
// Stamps and client readings are wall-clock readings of one process;
// the slack covers a clock adjustment landing mid-run.
const stageTolerance = 2 * time.Millisecond

// quiesceTimeout bounds the wait for empty queues and lock tables after
// the last transaction is terminal.
const quiesceTimeout = 10 * time.Second

// spawnShape is the paper's Table 1 execution log of spawnVM.
var spawnShape = []string{"cloneImage", "exportImage", "importImage", "createVM", "startVM"}

// check runs the correctness gate over a finished pass.
func (p *pass) check(ctx context.Context, e *env) {
	fail := func(format string, args ...any) {
		if len(p.gate) < 20 {
			p.gate = append(p.gate, fmt.Sprintf(format, args...))
		}
	}
	cli := e.clients[0]
	all := append(append([]*sample(nil), p.open...), p.closed...)

	// Every attempt is accounted for, and every submitted transaction
	// is terminal (re-read when its Wait gave up).
	outcomes := 0
	for _, s := range all {
		if s.op.kind != opSubmit {
			outcomes++
			continue
		}
		if s.id == "" {
			if s.err == nil {
				fail("submission of %s %v has neither an id nor an error", s.op.proc, s.op.args)
			}
			outcomes++
			continue
		}
		if s.rec == nil || !s.rec.State.Terminal() {
			wctx, cancel := context.WithTimeout(ctx, waitTimeout)
			_, err := cli.Wait(wctx, s.id)
			cancel()
			if err != nil {
				fail("transaction %s is not terminal after the run: %v", s.id, err)
				continue
			}
		}
		outcomes++
	}
	if outcomes != len(all) {
		fail("%d of %d attempts have no outcome", len(all)-outcomes, len(all))
	}

	// The pipeline drains and no lock outlives its transaction.
	if err := quiesce(e); err != nil {
		fail("%v", err)
	}

	// The seeded population is checked like the measured transactions,
	// except for its History, of which the client kept no view.
	logs := map[string][][]tropic.LogRecord{} // transaction id → executed logs (children of a parent)
	for i, s := range append(append([]*sample(nil), e.seeded...), all...) {
		if s.op.kind != opSubmit || s.rec == nil || s.err != nil {
			continue
		}
		l, err := executedLogs(cli, s.rec)
		if err != nil {
			fail("%v", err)
			continue
		}
		logs[s.id] = l
		if s.committed() && s.op.proc == tcloud.ProcSpawnVM {
			if err := checkSpawnShape(l); err != nil {
				fail("spawnVM %s: %v", s.id, err)
			}
		}
		if i < len(e.seeded) {
			continue
		}
		if err := checkStages(s); err != nil {
			fail("transaction %s: %v", s.id, err)
		}
	}
	if e.cloud != nil {
		for _, msg := range checkDevices(e, append(append([]*sample(nil), e.seeded...), all...), logs) {
			fail("%s", msg)
		}
	}
	p.correct = len(p.gate) == 0
}

// failCode classifies a non-committed attempt by its trerr code.
func failCode(s *sample) string {
	switch {
	case s.err != nil:
		if c := trerr.CodeOf(s.err); c != "" {
			return string(c)
		}
		return "error"
	case s.rec == nil:
		return "unanswered"
	case s.rec.Code != "":
		return s.rec.Code
	default:
		return "state." + string(s.rec.State)
	}
}

// quiesce waits until every shard's queues are empty and its leader
// holds no locks.
func quiesce(e *env) error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		q := e.pl.QueueDepths()
		locks := 0
		for i := 0; i < e.pl.NumShards(); i++ {
			if l := e.pl.ShardLeader(i); l != nil {
				locks += l.LockManager().LockCount()
			}
		}
		if q.InQ+q.TodoQ+q.PhyQ == 0 && locks == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not quiescent %s after the last transaction: queues %+v, %d locks held", quiesceTimeout, q, locks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// executedLogs returns the execution logs that belong to a terminal
// transaction: its own, or one per child of a cross-shard parent.
func executedLogs(cli *tropic.Client, rec *tropic.Txn) ([][]tropic.LogRecord, error) {
	if !rec.IsParent() {
		if stampAt(rec, tropic.StateStarted).IsZero() {
			return nil, nil // never reached the workers
		}
		return [][]tropic.LogRecord{rec.Log}, nil
	}
	var out [][]tropic.LogRecord
	for _, ref := range rec.Children {
		child, err := cli.Get(ref.ID)
		if err != nil {
			return nil, fmt.Errorf("child %s of %s: %w", ref.ID, rec.ID, err)
		}
		if rec.State == tropic.StateCommitted && child.State != tropic.StateCommitted {
			return nil, fmt.Errorf("committed parent %s has child %s %s", rec.ID, ref.ID, child.State)
		}
		if stampAt(child, tropic.StateStarted).IsZero() {
			continue // never reached the workers
		}
		out = append(out, child.Log)
	}
	return out, nil
}

// checkSpawnShape checks a committed spawnVM's logs against Table 1:
// five records in order, each executed by exactly one of the logs.
func checkSpawnShape(logs [][]tropic.LogRecord) error {
	owned := make([]int, len(spawnShape))
	for _, l := range logs {
		if len(l) != len(spawnShape) {
			return fmt.Errorf("log has %d records, want %d", len(l), len(spawnShape))
		}
		for i, r := range l {
			if r.Action != spawnShape[i] {
				return fmt.Errorf("record %d is %s, want %s", i+1, r.Action, spawnShape[i])
			}
			if !r.Foreign {
				owned[i]++
			}
		}
	}
	for i, n := range owned {
		if n != 1 {
			return fmt.Errorf("%s is executed by %d logs, want 1", spawnShape[i], n)
		}
	}
	return nil
}

// checkStages checks that a transaction's History is a breakdown of
// its end-to-end latency: it runs from initialized to a terminal state,
// its stamps are in order, the initialized stamp falls inside the
// Submit call and the terminal stamp before Wait returned. The parts
// due → Submit, Submit → initialized, the History stages and terminal →
// Wait return then each span a non-negative share of the latency, which
// they add up to by construction.
func checkStages(s *sample) error {
	h := s.rec.History
	if len(h) < 2 || h[0].State != tropic.StateInitialized || !h[len(h)-1].State.Terminal() {
		return fmt.Errorf("history %v does not run from initialized to a terminal state", h)
	}
	if h[0].At.Before(s.start.Add(-stageTolerance)) || h[0].At.After(s.returned.Add(stageTolerance)) {
		return fmt.Errorf("initialized at %s, outside the Submit call [%s, %s]",
			h[0].At.Format(time.StampMicro), s.start.Format(time.StampMicro), s.returned.Format(time.StampMicro))
	}
	for i := 1; i < len(h); i++ {
		if d := h[i].At.Sub(h[i-1].At); d < -stageTolerance {
			return fmt.Errorf("stage %s → %s is negative (%s)", h[i-1].State, h[i].State, d)
		}
	}
	if d := s.done.Sub(h[len(h)-1].At); d < -stageTolerance {
		return fmt.Errorf("terminal stamp %s after Wait returned", -d)
	}
	return nil
}

// checkDevices checks that every action of a committed transaction
// reached the device exactly once, that no action reached it without a
// transaction, and that the devices hold exactly the VMs the committed
// transactions leave behind.
func checkDevices(e *env, all []*sample, logs map[string][][]tropic.LogRecord) []string {
	var msgs []string
	want := map[string]int{}  // actions of committed transactions
	slack := map[string]int{} // actions (and undos) a rolled-back transaction may have run
	var committed []*sample
	for _, s := range all {
		if s.op.kind != opSubmit || s.rec == nil || s.err != nil {
			continue
		}
		physical := s.rec.State == tropic.StateCommitted
		if physical {
			committed = append(committed, s)
		}
		for _, l := range logs[s.id] {
			for _, r := range l {
				if r.Foreign {
					continue
				}
				if physical {
					want[actionKey(r.Path, r.Action, r.Args)]++
					continue
				}
				slack[actionKey(r.Path, r.Action, r.Args)]++
				if r.Undo != "" {
					slack[actionKey(r.UndoTarget(), r.Undo, r.UndoArgs)]++
				}
			}
		}
	}
	got := e.dev.succeeded()
	for k, n := range want {
		if got[k] < n || got[k] > n+slack[k] {
			msgs = append(msgs, fmt.Sprintf("action %q reached the device %d times for %d committed executions", k, got[k], n))
		}
	}
	for k, n := range got {
		if want[k] == 0 && n > slack[k] {
			msgs = append(msgs, fmt.Sprintf("action %q reached the device %d times without a committed transaction", k, n))
		}
	}

	// Replay the committed transactions in commit order.
	sort.Slice(committed, func(i, j int) bool { return committed[i].rec.CompletedAt.Before(committed[j].rec.CompletedAt) })
	type vmState struct {
		host    string
		running bool
	}
	wantVMs := map[string]vmState{}
	for _, s := range committed {
		a := s.op.args
		switch s.op.proc {
		case tcloud.ProcSpawnVM:
			wantVMs[a[2]] = vmState{host: a[1], running: true}
		case tcloud.ProcStartVM, tcloud.ProcStopVM:
			v := wantVMs[a[1]]
			v.running = s.op.proc == tcloud.ProcStartVM
			wantVMs[a[1]] = v
		case tcloud.ProcMigrateVM:
			v := wantVMs[a[1]]
			v.host = a[2]
			wantVMs[a[1]] = v
		case tcloud.ProcDestroyVM:
			delete(wantVMs, a[1])
		}
	}
	seen := 0
	for i := 0; i < e.spec.topo.ComputeHosts; i++ {
		host := tcloud.ComputeHostPath(i)
		h := e.cloud.ComputeHost(tcloud.ComputeHostName(i))
		if h == nil {
			msgs = append(msgs, "compute host "+host+" is missing")
			continue
		}
		for name, vm := range h.VMs {
			seen++
			w, ok := wantVMs[name]
			if !ok || w.host != host || w.running != (vm.State == "running") {
				msgs = append(msgs, fmt.Sprintf("device has VM %s on %s (%s); committed transactions leave %+v (present %v)",
					name, host, vm.State, w, ok))
			}
		}
	}
	if seen != len(wantVMs) {
		msgs = append(msgs, fmt.Sprintf("devices hold %d VMs, committed transactions leave %d", seen, len(wantVMs)))
	}
	return msgs
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
