// Command tropicbench is the repository's end-to-end benchmark. It runs
// TROPIC in tropicd's production configuration, in process, against one
// of its workloads, checks that the platform's outputs are correct,
// and prints every metric by name and unit. The last line of standard
// output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is made twice, untraced and traced, and the metrics are the
// per-layer ones from the traced pass plus the tracing overhead. The
// exit code is non-zero when the correctness gate fails. See README.md
// for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/shard"
	"repro/internal/workload"
	"repro/tcloud"
)

// rounds is how many times an untraced run sets a platform up and
// measures it; each end-to-end metric is the median over the rounds.
const rounds = 6

// Offered load and windows, sized so the open loops stay well below the
// platform's capacity on a 2-core box (their queues do not grow) and the
// closed loops keep every stage busy.
const (
	ec2Compress  = 4.0  // EC2 trace seconds replayed per second (about 50 launches/s at the surge)
	hostingRate  = 40.0 // hosting operations per second
	statusRate   = 600. // status operations per second (95% reads)
	readBurst    = 10   // Gets per status dashboard refresh
	spawnWindow  = 64   // outstanding spawns in a fleet deployment
	hostingWnd   = 16   // outstanding hosting operations
	xshardRate   = 40.0 // spawn groups per second on two shards
	xshardWnd    = 32   // outstanding spawns on two shards
	pairEvery    = 8    // every 8th spawn group on a one-shard host is an affinity pair
	statusWrites = 0.05 // share of status operations that spawn
	statusLists  = 0.02 // share of status reads that list a page
)

// workloadDef is one benchmark workload: the platform it runs on and
// the operations of its open-loop (latency) and closed-loop (throughput)
// phases.
type workloadDef struct {
	name string
	spec spec
	// open returns each lane's operations for an open-loop phase of
	// length dur, and the read-target table (nil: the population).
	open func(rng *rand.Rand, seed int64, st *state, dur time.Duration) ([][]op, []string)
	// closed returns each lane's operations for a closed-loop phase.
	closed func(st *state, dur time.Duration) [][]op
	window int
}

// state carries the generators across a run's phases, so operations
// keep acting on the platform's actual contents.
type state struct {
	spawner *spawner
	hosting *workload.HostingGen
}

// manyHosts is a logical-only topology where spawns cycling over the
// hosts never contend: each host has its own storage host and room for
// far more VMs than a run spawns.
var manyHosts = tcloud.Topology{ComputeHosts: 256, ComputePerStorage: 1, HostMemMB: 1 << 20, StorageCapGB: 1 << 20}

var workloads = []workloadDef{
	{
		name: "ec2-spawn",
		spec: spec{shards: 1, topo: manyHosts, cacheBytes: defaultCacheBytes, population: fleetPopulation},
		open: func(rng *rand.Rand, seed int64, st *state, dur time.Duration) ([][]op, []string) {
			at := ec2Arrivals(rng, seed, ec2Compress, dur)
			writes := make([]op, len(at))
			for i, a := range at {
				writes[i] = st.spawner.spawn()
				writes[i].at, writes[i].target = a, i
			}
			return [][]op{writes, pollReads(rng, at, dur)}, make([]string, len(writes))
		},
		closed: spawnFleet,
		window: spawnWindow,
	},
	{
		name: "hosting",
		spec: spec{shards: 2, cloud: true, topo: tcloud.Topology{ComputeHosts: 16}, cacheBytes: defaultCacheBytes},
		open: func(rng *rand.Rand, seed int64, st *state, dur time.Duration) ([][]op, []string) {
			at := poissonArrivals(rng, hostingRate, dur)
			out := make([][]op, lanes)
			for i, a := range at {
				o := hostingOp(st.hosting.Next())
				o.at, o.target = a, i
				l := hostingVMIndex(o.vm) % lanes
				out[l] = append(out[l], o)
			}
			out[lanes-1] = mergeByDue(out[lanes-1], pollReads(rng, at, dur))
			return out, make([]string, len(at))
		},
		closed: func(st *state, dur time.Duration) [][]op {
			out := make([][]op, lanes)
			for i := 0; i < int(dur.Seconds()*400); i++ {
				o := hostingOp(st.hosting.Next())
				l := hostingVMIndex(o.vm) % lanes
				out[l] = append(out[l], o)
			}
			return out
		},
		window: hostingWnd,
	},
	{
		name: "xshard-spawn",
		spec: spec{shards: 2, cloud: true, topo: manyHosts, cacheBytes: defaultCacheBytes, population: fleetPopulation, pairEvery: pairEvery},
		open: func(rng *rand.Rand, seed int64, st *state, dur time.Duration) ([][]op, []string) {
			var writes []op
			var at []time.Duration
			for _, a := range poissonArrivals(rng, xshardRate, dur) {
				for _, o := range st.spawner.group() {
					o.at, o.target = a, len(writes)
					writes = append(writes, o)
					at = append(at, a)
				}
			}
			return [][]op{writes, pollReads(rng, at, dur)}, make([]string, len(writes))
		},
		closed: spawnFleet,
		window: xshardWnd,
	},
	{
		name: "status",
		spec: spec{shards: 1, topo: manyHosts, cacheBytes: statusCacheBytes, population: statusPopulation},
		open: func(rng *rand.Rand, seed int64, st *state, dur time.Duration) ([][]op, []string) {
			reads := statusRate * (1 - statusWrites)
			var console []op // spawns and List pages: the tenant's console
			for _, a := range poissonArrivals(rng, statusRate*statusWrites, dur) {
				o := st.spawner.spawn()
				o.at, o.target = a, -1
				console = append(console, o)
			}
			var lists []op
			for _, a := range poissonArrivals(rng, reads*statusLists, dur) {
				lists = append(lists, op{kind: opList, at: a, target: rng.Intn(statusPopulation)})
			}
			var gets []op // dashboard refreshes: readBurst Gets due together
			refreshes := poissonArrivals(rng, reads*(1-statusLists)/readBurst, dur)
			hot := zipfTargets(rng, statusPopulation, len(refreshes)*readBurst)
			for i, a := range refreshes {
				for k := 0; k < readBurst; k++ {
					gets = append(gets, op{kind: opGet, at: a, target: hot[i*readBurst+k]})
				}
			}
			return [][]op{mergeByDue(console, lists), gets}, nil
		},
		closed: spawnFleet,
		window: spawnWindow,
	},
}

// fleetPopulation is how many VMs the spawn workloads' tenants already
// run: set-up commits them, so setup_s times the pipeline's first
// commits from a cold start as well as the platform's construction,
// which alone (about 30 ms) moves with the machine's CPU speed by
// more than setup_s's bound.
const fleetPopulation = 150

// Status population and read-cache budget (tropicd's default is 32 MiB).
// A committed spawnVM record takes about 1.4 KB of cache, so 512 KiB
// holds the Zipf hot set of the population but not its tail, and the
// records the tenant's own spawns and Waits pull in compete for it.
const (
	statusPopulation = 600
	statusCacheBytes = 512 << 10
)

// spawnFleet is a tenant deploying a fleet: spawnVMs from every lane
// (an affinity pair from one lane), as many as a closed-loop phase can
// possibly commit.
func spawnFleet(st *state, dur time.Duration) [][]op {
	out := make([][]op, lanes)
	for i := 0; i < int(dur.Seconds()*2000); i++ {
		out[i%lanes] = append(out[i%lanes], st.spawner.group()...)
	}
	return out
}

// newState starts a run's generators from its seed.
func newState(sp spec, seed int64) *state {
	st := &state{spawner: newSpawner(rand.New(rand.NewSource(seed)), sp.topo.ComputeHosts)}
	if sp.pairEvery > 0 {
		st.spawner.pairs(shard.NewMap(sp.shards), sp.pairEvery)
	}
	if sp.cloud {
		st.hosting = workload.NewHostingGen(sp.topo, workload.DefaultHostingMix(), seed)
	}
	return st
}

func mergeByDue(a, b []op) []op {
	out := make([]op, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].at <= b[0].at {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func main() {
	var (
		name    = flag.String("workload", "", "ec2-spawn | hosting | xshard-spawn | status")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same operations")
		seconds = flag.Int("seconds", 20, "measured seconds, split into rounds of an open-loop then a closed-loop phase")
		traced  = flag.Int("trace", 0, "1: run untraced and traced, report per-layer metrics and tracing overhead")
		work    = flag.String("work", ".bench_build", "directory for data directories and span files")
	)
	flag.Parse()
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 2 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: tropicbench --workload ec2-spawn|hosting|xshard-spawn|status --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tropicbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures the workload once (untraced), or twice when traced: the
// untraced pass gives the baseline the tracing overhead is taken from.
func run(w *workloadDef, seed int64, dur time.Duration, traced bool, work string) (*result, error) {
	cal, err := calibrate(w.spec.cloud, work)
	if err != nil {
		return nil, err
	}
	printCalibration(cal)
	if !traced {
		p, err := measure(w, seed, dur, nil, work, rounds)
		if err != nil {
			return nil, err
		}
		p.print(w.name, append(append([]metricDef(nil), endToEnd...), ungated...))
		return p.result(endToEnd), nil
	}
	base, err := measure(w, seed, dur/2, nil, work, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, err := measure(w, seed, dur/2, tr, work, 1)
	if err != nil {
		return nil, err
	}
	spanFile := filepath.Join(work, "spans-"+w.name+".json")
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spanFile)
	p.layers(tr, cal, base)
	p.correct = p.correct && base.correct
	p.gate = append(p.gate, base.gate...)
	p.attempt += base.attempt
	p.failed += base.failed
	for c, n := range base.codes {
		p.codes[c] += n
	}
	p.print(w.name, perLayer)
	return p.result(perLayer), nil
}

// pass is one measured run of a workload on a freshly set-up platform.
type pass struct {
	vals    map[string]float64
	notes   map[string]string
	correct bool
	gate    []string // failed correctness checks
	codes   map[string]int
	shards  int
	attempt int
	failed  int

	open, closed []*sample
	before       snapshot
	after        snapshot
	phaseWall    time.Duration
	closedDur    time.Duration
	depth        depthSampler
}

// measure runs the workload in rounds, each on a freshly set-up
// platform with the same inputs, and reports each end-to-end metric's
// median over the rounds (set-up time included: every round times its
// own). Attempts, failures and the gate cover every round.
func measure(w *workloadDef, seed int64, dur time.Duration, tr *tracer, work string, n int) (*pass, error) {
	var ps []*pass
	for k := 0; k < n; k++ {
		p, err := measureOnce(w, seed, dur/time.Duration(n), tr, work)
		if err != nil {
			return nil, err
		}
		if k < n-1 {
			// Only the last round's samples are used after it ends; an
			// earlier round keeps its values, gate and counts.
			p.open, p.closed = nil, nil
		}
		ps = append(ps, p)
	}
	last := ps[len(ps)-1]
	for _, d := range append(append([]metricDef(nil), endToEnd...), ungated...) {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.vals[d.name])
		}
		last.vals[d.name] = median(xs)
		if n > 1 {
			last.notes[d.name] = fmt.Sprintf("median of %d rounds, last %s", n, last.notes[d.name])
		}
	}
	// The heap is the first round's: a stopped two-shard platform stays
	// reachable from its pending prepare-deadline timers for up to
	// XShardPrepareTimeout, so in later rounds an earlier platform may be
	// freed between the two heap readings.
	last.vals["heap_mb"] = ps[0].vals["heap_mb"]
	last.notes["heap_mb"] = "first round, " + ps[0].notes["heap_mb"]
	for _, p := range ps[:len(ps)-1] {
		last.attempt += p.attempt
		last.failed += p.failed
		last.correct = last.correct && p.correct
		last.gate = append(last.gate, p.gate...)
		for c, n := range p.codes {
			last.codes[c] += n
		}
	}
	return last, nil
}

// measureOnce sets a platform up (timed), runs the open-loop phase and
// the closed-loop phase on it, and runs the correctness gate.
func measureOnce(w *workloadDef, seed int64, dur time.Duration, tr *tracer, work string) (*pass, error) {
	ctx := context.Background()
	p := &pass{vals: map[string]float64{}, notes: map[string]string{}, codes: map[string]int{}, shards: w.spec.shards}
	st := newState(w.spec, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	openDur := dur * 2 / 3
	openOps, targets := w.open(rng, seed, st, openDur)
	closedOps := w.closed(st, dur-openDur)
	heap0 := liveHeapMiB() // the generated inputs, and what earlier rounds left
	start := time.Now()
	e, err := setup(ctx, w.spec, work, tr, st.spawner)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.vals["setup_s"] = time.Since(start).Seconds()
	p.notes["setup_s"] = fmt.Sprintf("%d seeded records", len(e.pop))
	// The data directory is deleted with the platform, so a failed final
	// WAL flush cannot matter.
	defer func() { _ = e.stop() }()

	r := &runner{ctx: ctx, e: e, tr: tr}
	if targets == nil {
		targets = e.pop
	}
	r.setTargets(targets)

	if tr != nil {
		p.depth.start(e.pl)
	}
	p.before = takeSnapshot(e)
	t0 := time.Now().Add(10 * time.Millisecond)
	p.open = openLoop(openOps, t0, func(s *sample, seq int) { r.exec(s, seq, nil) })
	r.waiters.Wait()
	p.vals["heap_mb"] = liveHeapMiB() - heap0
	p.notes["heap_mb"] = fmt.Sprintf("live heap less %.1f MiB before set-up", heap0)
	t1 := time.Now()
	var enough bool
	p.closedDur = dur - openDur
	p.closed, enough = r.closedLoop(closedOps, w.window, t1, p.closedDur)
	p.phaseWall = time.Since(t0)
	p.after = takeSnapshot(e)
	if tr != nil {
		p.depth.stop()
	}
	if !enough {
		return nil, fmt.Errorf("closed loop ran out of generated operations; raise the generator's budget")
	}
	p.endToEnd(t1)
	p.check(ctx, e)
	return p, nil
}

// liveHeapMiB is the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// endToEnd computes the end-to-end metrics from the samples.
func (p *pass) endToEnd(closedStart time.Time) {
	var commit, read dist
	submitted, committed := 0, 0
	for _, s := range p.open {
		switch s.op.kind {
		case opSubmit:
			if s.err != nil || s.rec == nil {
				commit.add(inf)
			} else {
				commit.add(ms(s.latency()))
			}
		case opGet:
			if s.err != nil {
				read.add(inf)
			} else {
				read.add(us(s.latency()))
			}
		}
	}
	inWindow := 0
	end := closedStart.Add(p.closedDur)
	for _, s := range p.closed {
		if s.committed() && s.done.Before(end) {
			inWindow++
		}
	}
	for _, s := range append(append([]*sample(nil), p.open...), p.closed...) {
		p.attempt++
		ok := s.err == nil
		if s.op.kind == opSubmit {
			submitted++
			if s.committed() {
				committed++
			} else {
				ok = false
				p.codes[failCode(s)]++
			}
		}
		if !ok {
			p.failed++
		}
	}
	p.vals["commit_p50_ms"] = commit.quantile(0.5)
	p.vals["commit_p99_ms"], _ = commit.tail(99)
	p.notes["commit_p50_ms"] = fmt.Sprintf("p50 of n=%d", commit.n())
	p.notes["commit_p99_ms"] = commit.describe(99)
	p.vals["read_p50_us"] = read.quantile(0.5)
	p.vals["read_p99_us"], _ = read.tail(99)
	p.notes["read_p50_us"] = fmt.Sprintf("p50 of n=%d", read.n())
	p.notes["read_p99_us"] = read.describe(99)
	p.vals["throughput_tps"] = float64(inWindow) / p.closedDur.Seconds()
	p.notes["throughput_tps"] = fmt.Sprintf("%d committed in %s of %d submitted", inWindow, p.closedDur, len(p.closed))
	p.vals["committed_frac"] = ratio(float64(committed), float64(submitted))
	p.notes["committed_frac"] = fmt.Sprintf("%d of %d transactions", committed, submitted)
	p.vals["cpu_ms_per_txn"] = ratio(ms(p.after.cpu-p.before.cpu), float64(committed))
	p.notes["cpu_ms_per_txn"] = fmt.Sprintf("%.0f ms CPU over %.1f s", ms(p.after.cpu-p.before.cpu), p.phaseWall.Seconds())
}

// inf stands for a failed or unanswered request in a latency
// distribution: it misses every latency limit.
const inf = 1e12

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"commit_p50_ms", "ms"},
	{"throughput_tps", "txn/s"},
	{"committed_frac", "ratio"},
	{"read_p50_us", "us"},
	{"heap_mb", "MiB"},
}

// ungated are end-to-end quantities that every run prints but that are
// reported with the per-layer metrics rather than gated, because they
// move by more than any bound a regression gate could use with no
// change to the program: a percentile with ten samples beyond it moves
// from one run to the next, and the CPU time of the same work moves
// with the load on the machine's other tenants.
var ungated = []metricDef{
	{"commit_p99_ms", "ms"},
	{"read_p99_us", "us"},
	{"cpu_ms_per_txn", "ms"},
}

// print writes one human-readable line per metric, then the gate.
func (p *pass) print(workload string, defs []metricDef) {
	fmt.Printf("workload %s\n", workload)
	for _, d := range defs {
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.name, p.vals[d.name], d.unit)
		if n := p.notes[d.name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("attempted %d, failed %d\n", p.attempt, p.failed)
	for _, c := range sortedKeys(p.codes) {
		fmt.Printf("  failed %-32s %d\n", c, p.codes[c])
	}
	if p.correct {
		fmt.Println("correctness gate: pass")
	} else {
		for _, g := range p.gate {
			fmt.Println("correctness gate: FAIL:", g)
		}
	}
}

func (p *pass) result(defs []metricDef) *result {
	r := &result{Correct: p.correct, Attempted: p.attempt, Failed: p.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: p.vals[d.name], Unit: d.unit}
	}
	return r
}
