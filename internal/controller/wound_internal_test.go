package controller

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/shard"
	"repro/internal/txn"
)

// TestWoundRetractsYoungerPrepare: an older cross-shard child blocked by
// a younger prepared child wounds it. The wound must retract the
// younger child's vote in its coordinator's ledger (no decision, no
// abort), release its prepare here so the older child prepares, and
// leave the younger child queued to prepare again with its next
// attempt once the older transaction commits.
func TestWoundRetractsYoungerPrepare(t *testing.T) {
	g := newReplayRig(t, true)
	peer, err := g.c.xPeer(1)
	if err != nil {
		t.Fatal(err)
	}
	// Two transactions coordinated by shard 1, each with a child here
	// (index 0) and one on shard 1, both incrementing /c0.
	child := func(seq int) (childPath, parentPath string) {
		local := fmt.Sprintf("t-x%09d", seq)
		parentID := shard.FormatID(1, local)
		parent := &txn.Txn{
			Proc: "inc", Args: []string{"/c0"}, State: txn.StateInitialized,
			Children: []txn.ChildRef{
				{ID: shard.ChildID(parentID, 0), Shard: 0},
				{ID: shard.ChildID(parentID, 1), Shard: 1},
			},
		}
		if err := parent.Transition(txn.StateAccepted); err != nil {
			t.Fatal(err)
		}
		parentPath = proto.TxnsPath + "/" + local
		if _, err := peer.Create(parentPath, parent.Encode(), 0); err != nil {
			t.Fatal(err)
		}
		childPath = g.create(proto.TxnsPath+"/"+parent.Children[0].ID, &txn.Txn{
			Proc: "inc", Args: []string{"/c0"}, State: txn.StateInitialized,
			Parent: parentID, Participants: []int{1, 0},
		})
		return childPath, parentPath
	}
	loadPeer := func(path string) *txn.Txn {
		t.Helper()
		data, _, err := peer.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := txn.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	// The younger transaction prepares first.
	young, youngParent := child(2)
	g.notify(proto.InputMsg{Kind: proto.KindSubmit, TxnPath: young})
	g.quiesce()
	if _, ok := g.c.prepared[shard.ChildID(shard.FormatID(1, "t-x000000002"), 0)]; !ok {
		t.Fatal("younger child did not prepare")
	}

	// The older one arrives, conflicts, and wounds it. The wound's ledger
	// write is asynchronous; run rounds until the release has landed.
	old, _ := child(1)
	g.notify(proto.InputMsg{Kind: proto.KindSubmit, TxnPath: old})
	g.round()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec, _, err := g.c.loadTxn(old); err == nil && rec.State == txn.StatePrepared {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("older child never prepared: the wound did not release the younger prepare")
		}
		g.c.lmu.Lock()
		pending := len(g.c.localMsgs)
		g.c.lmu.Unlock()
		if pending > 0 || (g.c.resched && len(g.c.todo) > 0) {
			g.round()
		} else {
			time.Sleep(time.Millisecond)
		}
	}

	parent := loadPeer(youngParent)
	if parent.Decision != "" || parent.State != txn.StateAccepted {
		t.Fatalf("wounded parent = %s decision %q, want accepted and undecided", parent.State, parent.Decision)
	}
	if ref := parent.Children[0]; ref.State != "" || ref.Retracted != 1 {
		t.Fatalf("wounded ledger entry = %+v, want vote cleared and attempt 1 retracted", ref)
	}
	rec, _, err := g.c.loadTxn(young)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != txn.StateAccepted || len(rec.Log) != 0 {
		t.Fatalf("released child = %s with %d log records, want accepted with none", rec.State, len(rec.Log))
	}
	if i := g.c.todoIndex(rec.ID); i < 0 {
		t.Fatal("released child is not queued to prepare again")
	}

	// A vote from the retracted attempt no longer counts; one from the
	// next attempt does.
	vote := proto.InputMsg{Kind: proto.KindXVote, TxnPath: youngParent, Outcome: string(txn.StatePrepared), Attempt: 1}
	if eff, ok, err := g.c.xApplyVote(parent, vote); err != nil || !ok || eff.changed {
		t.Fatalf("stale vote: changed=%v ok=%v err=%v, want ignored", eff.changed, ok, err)
	}
	vote.Attempt = 2
	if eff, ok, err := g.c.xApplyVote(parent, vote); err != nil || !ok || !eff.changed || parent.Children[0].State != txn.StatePrepared {
		t.Fatalf("next-attempt vote: changed=%v ok=%v err=%v ledger=%+v, want counted", eff.changed, ok, err, parent.Children[0])
	}

	// The older transaction commits; the younger child then prepares
	// again, as its second attempt.
	g.notify(proto.InputMsg{Kind: proto.KindXDecide, TxnPath: old, Decision: txn.DecisionCommit})
	g.quiesce()
	t2, ok := g.c.prepared[rec.ID]
	if !ok {
		t.Fatalf("younger child did not prepare again after the older one committed")
	}
	if n := prepareAttempt(t2); n != 2 {
		t.Fatalf("younger child's prepare attempt = %d, want 2", n)
	}
	g.terminalOnce(old, txn.StateCommitted)
	if st := g.c.Stats(); st.Aborted != 0 {
		t.Fatalf("%d aborts, want none: a wound must not abort", st.Aborted)
	}
}
