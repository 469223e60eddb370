package txn

import (
	"testing"
	"time"
)

func sampleTxn() *Txn {
	return &Txn{
		ID:          "t-0000000001",
		Proc:        "spawnVM",
		Args:        []string{"vm1", "imageTemplate"},
		State:       StateInitialized,
		SubmittedAt: time.Now(),
		Log: []LogRecord{
			{Seq: 1, Path: "/storageRoot/storageHost", Action: "cloneImage",
				Args: []string{"imageTemplate", "vmImage"}, Undo: "removeImage", UndoArgs: []string{"vmImage"}},
			{Seq: 2, Path: "/storageRoot/storageHost", Action: "exportImage",
				Args: []string{"vmImage"}, Undo: "unexportImage", UndoArgs: []string{"vmImage"}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleTxn()
	back, err := Decode(orig.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.ID != orig.ID || back.Proc != orig.Proc || back.State != orig.State {
		t.Fatalf("header mismatch: %+v", back)
	}
	if len(back.Log) != 2 || back.Log[0].Action != "cloneImage" || back.Log[1].Undo != "unexportImage" {
		t.Fatalf("log mismatch: %+v", back.Log)
	}
	if len(back.Args) != 2 || back.Args[1] != "imageTemplate" {
		t.Fatalf("args mismatch: %v", back.Args)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestLegalLifecycles(t *testing.T) {
	paths := [][]State{
		{StateAccepted, StateStarted, StateCommitted},
		{StateAccepted, StateAborted},
		{StateAccepted, StateDeferred, StateStarted, StateAborted},
		{StateAccepted, StateDeferred, StateDeferred, StateStarted, StateFailed},
	}
	for _, path := range paths {
		tx := sampleTxn()
		for _, next := range path {
			if err := tx.Transition(next); err != nil {
				t.Fatalf("path %v: %v", path, err)
			}
		}
		if !tx.State.Terminal() {
			t.Fatalf("path %v ended non-terminal", path)
		}
	}
}

func TestIllegalTransitions(t *testing.T) {
	cases := []struct {
		from, to State
	}{
		{StateInitialized, StateStarted},
		{StateInitialized, StateCommitted},
		{StateAccepted, StateCommitted},
		{StateCommitted, StateAborted},
		{StateAborted, StateStarted},
		{StateFailed, StateCommitted},
		{StateStarted, StateAccepted},
	}
	for _, c := range cases {
		tx := sampleTxn()
		tx.State = c.from
		if err := tx.Transition(c.to); err == nil {
			t.Errorf("%s -> %s allowed", c.from, c.to)
		}
	}
}

func TestTerminalSetsCompletedAt(t *testing.T) {
	tx := sampleTxn()
	tx.State = StateStarted
	if tx.Latency() != 0 {
		t.Fatal("latency nonzero before completion")
	}
	if err := tx.Transition(StateCommitted); err != nil {
		t.Fatal(err)
	}
	if tx.CompletedAt.IsZero() || tx.Latency() <= 0 {
		t.Fatalf("completedAt=%v latency=%v", tx.CompletedAt, tx.Latency())
	}
}

func TestTerminalPredicate(t *testing.T) {
	for s, want := range map[State]bool{
		StateInitialized: false, StateAccepted: false, StateDeferred: false,
		StateStarted: false, StateCommitted: true, StateAborted: true, StateFailed: true,
	} {
		if s.Terminal() != want {
			t.Errorf("%s.Terminal() = %v", s, !want)
		}
	}
}

func TestLogRecordString(t *testing.T) {
	r := sampleTxn().Log[0]
	s := r.String()
	for _, want := range []string{"cloneImage", "removeImage", "/storageRoot/storageHost"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestCrossShardLifecycles pins the 2PC extensions of the state
// machine: children prepare out of accepted/deferred and resolve via
// the decision; parents decide out of accepted and finalize.
func TestCrossShardLifecycles(t *testing.T) {
	paths := [][]State{
		// Child: prepare → commit decision → physical execution.
		{StateAccepted, StatePrepared, StateStarted, StateCommitted},
		// Child: deferred retry, then prepare, then abort decision.
		{StateAccepted, StateDeferred, StatePrepared, StateAborted},
		// Child: commit decision but physical failure.
		{StateAccepted, StatePrepared, StateStarted, StateFailed},
		// Child: a wound retracts its vote; it is re-accepted, prepares
		// again and commits.
		{StateAccepted, StatePrepared, StateInitialized, StateAccepted, StatePrepared, StateStarted, StateCommitted},
		// Parent: decision recorded, all children committed.
		{StateAccepted, StateDeciding, StateCommitted},
		// Parent: abort decision (prepare failure or in-doubt timeout).
		{StateAccepted, StateDeciding, StateAborted},
		// Parent: a child failed physically after the commit decision.
		{StateAccepted, StateDeciding, StateFailed},
	}
	for _, path := range paths {
		tx := sampleTxn()
		for _, next := range path {
			if err := tx.Transition(next); err != nil {
				t.Fatalf("path %v: %v", path, err)
			}
		}
		if !tx.State.Terminal() {
			t.Fatalf("path %v ended non-terminal", path)
		}
		// Every persisted transition is stamped, in order.
		if len(tx.History) != len(path) {
			t.Fatalf("path %v: %d history stamps", path, len(tx.History))
		}
		for i, stamp := range tx.History {
			if stamp.State != path[i] || stamp.At.IsZero() {
				t.Fatalf("path %v: stamp %d = %+v", path, i, stamp)
			}
		}
	}
}

// TestCrossShardIllegalTransitions: the 2PC states stay constrained —
// prepared children never commit or re-enter the queue directly, and
// deciding parents never regress.
func TestCrossShardIllegalTransitions(t *testing.T) {
	cases := []struct {
		from, to State
	}{
		{StatePrepared, StateCommitted},
		{StatePrepared, StateDeferred},
		{StatePrepared, StateAccepted},
		{StatePrepared, StateDeciding},
		{StateDeciding, StateStarted},
		{StateDeciding, StatePrepared},
		{StateDeciding, StateAccepted},
		{StateInitialized, StatePrepared},
		{StateInitialized, StateDeciding},
		{StateStarted, StatePrepared},
		{StateStarted, StateDeciding},
	}
	for _, c := range cases {
		tx := sampleTxn()
		tx.State = c.from
		if err := tx.Transition(c.to); err == nil {
			t.Errorf("%s -> %s allowed", c.from, c.to)
		}
	}
	for s, want := range map[State]bool{StatePrepared: false, StateDeciding: false} {
		if s.Terminal() != want {
			t.Errorf("%s.Terminal() = %v", s, !want)
		}
	}
}

// TestParentChildPredicates: record-shape helpers used across layers.
func TestParentChildPredicates(t *testing.T) {
	tx := sampleTxn()
	if tx.IsParent() || tx.IsChild() {
		t.Fatal("plain record classified as parent/child")
	}
	tx.Children = []ChildRef{{ID: "s0-t-1.c0", Shard: 0}, {ID: "s0-t-1.c1", Shard: 2}}
	if !tx.IsParent() || tx.IsChild() {
		t.Fatal("parent record misclassified")
	}
	child := sampleTxn()
	child.Parent = "s0-t-1"
	if !child.IsChild() || child.IsParent() {
		t.Fatal("child record misclassified")
	}
	// Parent/child linkage and foreign marks survive the codec.
	child.Participants = []int{0, 2}
	child.Log = []LogRecord{{Seq: 1, Path: "/a/b", Action: "x", Foreign: true}}
	out, err := Decode(child.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Parent != child.Parent || len(out.Participants) != 2 || !out.Log[0].Foreign {
		t.Fatalf("codec lost cross-shard fields: %+v", out)
	}
}
