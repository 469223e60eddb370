package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/tropic"
)

// generate builds one workload's open- and closed-loop operations for a
// seed the way a run does.
func generate(w workloadDef, seed int64) ([][]op, [][]op) {
	st := newState(w.spec, seed)
	open, _ := w.open(rand.New(rand.NewSource(seed+1)), seed, st, 6*time.Second)
	return open, w.closed(st, 3*time.Second)
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o1, c1 := generate(w, 7)
			o2, c2 := generate(w, 7)
			if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(c1, c2) {
				t.Fatal("the same seed generated different operations")
			}
			o3, _ := generate(w, 8)
			if reflect.DeepEqual(o1, o3) {
				t.Fatal("different seeds generated the same operations")
			}
			n := 0
			for _, lane := range o1 {
				n += len(lane)
				if !sort.SliceIsSorted(lane, func(i, j int) bool { return lane[i].at < lane[j].at }) {
					t.Fatal("a lane's operations are not in due order")
				}
			}
			if n == 0 || len(o1) > lanes || len(c1) > lanes {
				t.Fatalf("%d operations over %d/%d lanes", n, len(o1), len(c1))
			}
		})
	}
}

// TestHostingKeepsVMOrderPerLane checks that every VM's operations go to
// one lane, in generation order.
func TestHostingKeepsVMOrderPerLane(t *testing.T) {
	var w workloadDef
	for _, x := range workloads {
		if x.name == "hosting" {
			w = x
		}
	}
	open, closed := generate(w, 3)
	for _, phase := range [][][]op{open, closed} {
		owner := map[string]int{}
		for lane, ops := range phase {
			for _, o := range ops {
				if o.kind != opSubmit {
					continue
				}
				if l, ok := owner[o.vm]; ok && l != lane {
					t.Fatalf("VM %s is submitted from lanes %d and %d", o.vm, l, lane)
				}
				owner[o.vm] = lane
			}
		}
	}
}

// TestOpenLoopTimesFromDue drives the open loop with a stand-in call that
// blocks: operations due while it blocks are issued late, and their
// latency still counts from when they were due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const block = 30 * time.Millisecond
	ops := [][]op{{
		{kind: opGet, at: 0},
		{kind: opGet, at: 5 * time.Millisecond},
		{kind: opGet, at: 10 * time.Millisecond},
		{kind: opGet, at: 100 * time.Millisecond},
	}}
	t0 := time.Now().Add(5 * time.Millisecond)
	calls := 0
	out := openLoop(ops, t0, func(s *sample, seq int) {
		s.start = time.Now()
		if calls == 0 {
			time.Sleep(block)
		}
		calls++
		s.returned = time.Now()
	})
	if len(out) != 4 {
		t.Fatalf("%d samples, want 4", len(out))
	}
	for i, s := range out {
		if want := t0.Add(ops[0][i].at); !s.due.Equal(want) {
			t.Fatalf("sample %d due %v, want %v", i, s.due, want)
		}
		if s.start.Before(s.due) {
			t.Fatalf("sample %d issued %v before it was due", i, s.due.Sub(s.start))
		}
	}
	// The second and third were due while the first blocked.
	for _, i := range []int{1, 2} {
		late := out[i].start.Sub(out[i].due)
		if want := block - ops[0][i].at; late < want {
			t.Fatalf("sample %d late by %v, want at least %v", i, late, want)
		}
		if out[i].latency() < late {
			t.Fatalf("sample %d latency %v leaves out its lateness %v", i, out[i].latency(), late)
		}
	}
	// The last was due well after: it starts near its due time.
	if late := out[3].start.Sub(out[3].due); late > 20*time.Millisecond {
		t.Fatalf("on-time sample late by %v", late)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 98.9}, {500, 98}, {100, 90}, {11, 9}, {10, 50}, {0, 50},
	} {
		if got := tailPct(99, c.n); got != c.want {
			t.Errorf("tailPct(99, %d) = %v, want %v", c.n, got, c.want)
		}
	}
	var d dist
	for i := 1; i <= 200; i++ {
		d.add(float64(i))
	}
	v, p := d.tail(99)
	if p != 95 || v != 190 {
		t.Fatalf("tail of 1..200 = %v at p%v, want 190 at p95", v, p)
	}
	if got := d.describe(99); got != "p95 of n=200" {
		t.Fatalf("describe = %q", got)
	}
	if d.quantile(0.5) != 100 {
		t.Fatalf("median of 1..200 = %v", d.quantile(0.5))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root
		{Name: "d", Start: 25, End: 28, Parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestLinkSpans(t *testing.T) {
	spans := []span{
		{Name: spanTxn, Start: 0, End: 100, Parent: -1, Txn: "t1", Key: "vm000001"},
		{Name: spanWait, Start: 10, End: 100, Parent: 0, Txn: "t1", Key: "vm000001"},
		{Name: spanTxn, Start: 0, End: 100, Parent: -1, Txn: "t2", Key: "vm000002"},
		{Name: spanWait, Start: 10, End: 100, Parent: 2, Txn: "t2", Key: "vm000002"},
		{Name: spanSimulate, Start: 20, End: 40, Parent: -1, Key: "vm000002"},
		{Name: spanConstraint, Start: 30, End: 35, Parent: -1, Key: "/vmRoot/vmHost00001"},
		{Name: spanDevice, Start: 50, End: 60, Parent: -1, Key: "vm000001"},
	}
	linkSpans(spans)
	if spans[4].Parent != 3 || spans[4].Txn != "t2" {
		t.Fatalf("procedure span linked to %d/%s", spans[4].Parent, spans[4].Txn)
	}
	if spans[5].Parent != 4 || spans[5].Txn != "t2" {
		t.Fatalf("constraint span linked to %d/%s", spans[5].Parent, spans[5].Txn)
	}
	if spans[6].Parent != 1 || spans[6].Txn != "t1" {
		t.Fatalf("device span linked to %d/%s", spans[6].Parent, spans[6].Txn)
	}
}

func TestBucketQuantile(t *testing.T) {
	before := []bucket{{0.001, 10}, {0.01, 10}, {1e308, 10}}
	after := []bucket{{0.001, 10}, {0.01, 30}, {1e308, 30}}
	// 20 new samples, all in (0.001, 0.01]: the median interpolates to
	// the bucket's middle.
	if got := bucketQuantile(before, after, 0.5); got < 0.0055-1e-9 || got > 0.0055+1e-9 {
		t.Fatalf("median %v, want 0.0055", got)
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names workloads
// this program runs, in its order, and exactly the metrics it prints.
// hosting alone is left out of the file (see README.md).
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		if w.name != "hosting" {
			ours = append(ours, w.name)
		}
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	same := func(what string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program prints %d", what, len(file), len(defs))
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Fatalf("%s %d: BENCHMARK.json %s/%s, program %s/%s", what, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

func TestCheckStages(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(init, acc, done int) *sample {
		return &sample{
			op: op{kind: opSubmit}, due: at(0), start: at(1), returned: at(3), done: at(20),
			rec: &tropic.Txn{History: []tropic.StateStamp{
				{State: tropic.StateInitialized, At: at(init)},
				{State: tropic.StateAccepted, At: at(acc)},
				{State: tropic.StateCommitted, At: at(done)},
			}},
		}
	}
	if err := checkStages(mk(2, 5, 19)); err != nil {
		t.Fatalf("ordered history inside the client's view: %v", err)
	}
	for name, s := range map[string]*sample{
		"initialized after Submit returned": mk(6, 7, 19),
		"initialized before Submit started": mk(-2, 5, 19),
		"stamps out of order":               mk(2, 10, 6),
		"terminal after Wait returned":      mk(2, 5, 23),
	} {
		if checkStages(s) == nil {
			t.Errorf("%s: passed the gate", name)
		}
	}
}

// TestAffinityPairsStayOnOneShard checks that the two-shard spawns pair
// up only on hosts whose roots share a shard, so a deferral never
// involves a spawn spanning shards, and that every seed offers the same
// share of spawns spanning shards.
func TestAffinityPairsStayOnOneShard(t *testing.T) {
	for _, w := range workloads {
		if w.spec.pairEvery == 0 {
			continue
		}
		for seed := int64(1); seed <= 5; seed++ {
			st := newState(w.spec, seed)
			m := st.spawner.shards
			spanning := func(o op) bool {
				return m.Shard(shard.RootOf(o.args[0])) != m.Shard(shard.RootOf(o.args[1]))
			}
			pairs, spans := 0, 0
			for i := 0; i < 200; i++ {
				g := st.spawner.group()
				if spanning(g[0]) {
					spans++
				}
				if len(g) == 1 {
					continue
				}
				pairs++
				if g[0].args[1] != g[1].args[1] || g[0].args[0] != g[1].args[0] {
					t.Fatalf("pair on different hosts: %v, %v", g[0].args, g[1].args)
				}
				if spanning(g[0]) {
					t.Fatalf("pair on a host spanning shards: %v", g[0].args)
				}
			}
			if spans != 100 || pairs != 100/w.spec.pairEvery {
				t.Fatalf("%s seed %d: %d of 200 groups span shards and %d are pairs, want 100 and %d",
					w.name, seed, spans, pairs, 100/w.spec.pairEvery)
			}
		}
	}
}
