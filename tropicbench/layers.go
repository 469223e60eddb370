package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/tropic"
)

// calTolerance is how far a stated injected delay's realised cost may
// stray from it before the benchmark refuses to run: beyond it, the
// delay measures the timer rather than the modelled component.
const calTolerance = 0.25

type calibration struct {
	quorum, action time.Duration // realised medians; action is 0 without devices
	fsync          time.Duration // mean fsync of a small append in the work directory
	cpu            time.Duration // median time of a fixed CPU-bound task
}

// calibrate times the stated delays the way the platform incurs them (a
// time.Sleep per store round and per device call), and the disk's fsync,
// which the store pays once per round under SyncAlways.
func calibrate(devices bool, dir string) (calibration, error) {
	var c calibration
	var err error
	if c.fsync, err = fsyncCost(dir, 50); err != nil {
		return c, err
	}
	c.cpu = cpuProbe()
	c.quorum = realised(quorumDelay, 200)
	if err := withinTolerance("store quorum delay", quorumDelay, c.quorum); err != nil {
		return c, err
	}
	if devices {
		c.action = realised(actionDelay, 40)
		if err := withinTolerance("device action delay", actionDelay, c.action); err != nil {
			return c, err
		}
	}
	return c, nil
}

func realised(d time.Duration, n int) time.Duration {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		time.Sleep(d)
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs))
}

// cpuProbe is the median time of hashing 1 MiB, a fixed amount of CPU
// work: it moves only with the machine (its clock and neighbours), which
// tells a reader of the calibration line when a run-to-run shift is the
// machine's.
func cpuProbe() time.Duration {
	buf := make([]byte, 1<<20)
	xs := make([]float64, 21)
	for i := range xs {
		start := time.Now()
		sha256.Sum256(buf)
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs))
}

// fsyncCost is the mean time of n fsyncs, each after a 4 KiB append to
// a scratch file in dir.
func fsyncCost(dir string, n int) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "fsync-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var total time.Duration
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(n), nil
}

func withinTolerance(what string, stated, got time.Duration) error {
	if dev := math.Abs(float64(got)/float64(stated) - 1); dev > calTolerance {
		return fmt.Errorf("%s: stated %s costs %s here (%.0f%% off, tolerance %.0f%%)",
			what, stated, got, 100*dev, 100*calTolerance)
	}
	return nil
}

func printCalibration(c calibration) {
	fmt.Printf("calibration: store quorum delay stated %s, realised %s; fsync %s; cpu probe %s\n", quorumDelay, c.quorum, c.fsync, c.cpu)
	if c.action > 0 {
		fmt.Printf("calibration: device action delay stated %s, realised %s\n", actionDelay, c.action)
	}
}

// snapshot holds every cumulative counter the per-layer metrics are
// differences of.
type snapshot struct {
	cpu        time.Duration
	ctrl       controller.Stats
	persist    tropic.PersistStats
	hits, miss int64
	inval      int64
	served     [3]int64 // cache, follower, leader
	procs      [2]int64 // calls, nanos
	dev        [2]int64
	reg        map[string]float64
	claim      []bucket
	alloc      float64
	gcCPU      float64
	allCPU     float64
}

func takeSnapshot(e *env) snapshot {
	s := snapshot{cpu: processCPU(), ctrl: e.pl.ControllerStats()}
	for i := 0; i < e.pl.NumShards(); i++ {
		ps := e.pl.ShardEnsemble(i).PersistStats()
		s.persist.WALAppends += ps.WALAppends
		s.persist.Fsyncs += ps.Fsyncs
		s.persist.Snapshots += ps.Snapshots
	}
	for _, rs := range e.pl.ReadStats() {
		s.hits += rs.Hits
		s.miss += rs.Misses
		s.inval += rs.Invalidations
		s.served[0] += rs.CacheServed
		s.served[1] += rs.FollowerServed
		s.served[2] += rs.LeaderServed
	}
	s.procs = [2]int64{e.procs.calls.Load(), e.procs.nanos.Load()}
	s.dev = [2]int64{e.dev.calls.Load(), e.dev.nanos.Load()}
	s.reg, s.claim = scrape(e.pl.Metrics().Text())
	rm := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(rm)
	s.alloc = float64(rm[0].Value.Uint64())
	s.gcCPU = rm[1].Value.Float64()
	s.allCPU = rm[2].Value.Float64()
	return s
}

// bucket is one cumulative histogram bucket.
type bucket struct{ le, count float64 }

// scrape sums every series of each metric family in the registry's
// text exposition over its labels, and returns the worker claim-wait
// histogram's buckets summed over shards.
func scrape(text string) (map[string]float64, []bucket) {
	sums := map[string]float64{}
	les := map[float64]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		sums[name] += v
		if name == "tropic_worker_claim_wait_seconds_bucket" {
			if i := strings.Index(labels, `le="`); i >= 0 {
				le := labels[i+4:]
				le = le[:strings.IndexByte(le, '"')]
				bound, err := strconv.ParseFloat(le, 64)
				if le == "+Inf" {
					bound, err = math.Inf(1), nil
				}
				if err == nil {
					les[bound] += v
				}
			}
		}
	}
	var bs []bucket
	for le, c := range les {
		bs = append(bs, bucket{le, c})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return sums, bs
}

// bucketQuantile interpolates the q-quantile of the difference of two
// cumulative histograms.
func bucketQuantile(before, after []bucket, q float64) float64 {
	prev := map[float64]float64{}
	for _, b := range before {
		prev[b.le] = b.count
	}
	var d []bucket
	for _, b := range after {
		d = append(d, bucket{b.le, b.count - prev[b.le]})
	}
	if len(d) == 0 || d[len(d)-1].count == 0 {
		return 0
	}
	rank := q * d[len(d)-1].count
	lo, below := 0.0, 0.0
	for _, b := range d {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*ratio(rank-below, b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}

// depthSampler samples queue depths and the watch fan-out while a
// traced pass runs.
type depthSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	max     [3]int64 // inputQ, todoQ, phyQ
	perSub  dist     // read-path store watches per watcher (parked subscriber or cached record)
	samples int
}

const depthEvery = 10 * time.Millisecond

func (d *depthSampler) start(pl *tropic.Platform) {
	d.done = make(chan struct{})
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(depthEvery)
		defer tick.Stop()
		for {
			select {
			case <-d.done:
				return
			case <-tick.C:
			}
			q := pl.QueueDepths()
			d.max[0] = max(d.max[0], q.InQ)
			d.max[1] = max(d.max[1], q.TodoQ)
			d.max[2] = max(d.max[2], q.PhyQ)
			hubs, watchers := 0, 0
			for _, rs := range pl.ReadStats() {
				hubs += rs.WatchHubs
				watchers += rs.Subscribers + rs.CachedRecords
			}
			if watchers > 0 {
				d.perSub.add(float64(hubs) / float64(watchers))
			}
			d.samples++
		}
	}()
}

func (d *depthSampler) stop() {
	close(d.done)
	d.wg.Wait()
}

// perLayer lists the metrics of a traced run: the ungated end-to-end
// quantities, then one group per layer.
var perLayer = append(append([]metricDef(nil), ungated...), []metricDef{
	{"gen.late_p99_ms", "ms"},
	{"tropic.submit_ms.p50", "ms"},
	{"tropic.submit_ms.p99", "ms"},
	{"tropic.notify_ms.p50", "ms"},
	{"tropic.list_ms.p50", "ms"},
	{"stage.inputq_ms.p50", "ms"},
	{"stage.inputq_ms.p99", "ms"},
	{"stage.schedule_ms.p50", "ms"},
	{"stage.schedule_ms.p99", "ms"},
	{"stage.execute_ms.p50", "ms"},
	{"stage.execute_ms.p99", "ms"},
	{"store.rounds_per_txn", "count"},
	{"store.ops_per_round", "count"},
	{"store.modeled_busy_frac", "ratio"},
	{"store.quorum_delay_realised_ms", "ms"},
	{"store.wal_appends_per_txn", "count"},
	{"store.fsyncs_per_txn", "count"},
	{"store.fsync_ms.mean", "ms"},
	{"queue.depth_max.inputq", "count"},
	{"queue.depth_max.todoq", "count"},
	{"queue.depth_max.phyq", "count"},
	{"controller.drain_items_per_round", "count"},
	{"controller.flush_ms.mean", "ms"},
	{"controller.busy_frac", "ratio"},
	{"controller.deferrals_per_txn", "count"},
	{"controller.useful_sim_frac", "ratio"},
	{"controller.constraint_us_per_txn", "us"},
	{"model.simulate_us.p50", "us"},
	{"model.simulations_per_txn", "count"},
	{"device.call_ms.p50", "ms"},
	{"device.calls_per_txn", "count"},
	{"device.action_delay_realised_ms", "ms"},
	{"worker.claim_wait_ms.p50", "ms"},
	{"worker.busy_frac", "ratio"},
	{"xshard.parent_frac", "ratio"},
	{"xshard.decide_ms.p50", "ms"},
	{"xshard.finalize_ms.p50", "ms"},
	{"xshard.piggyback_frac", "ratio"},
	{"xshard.local_child_frac", "ratio"},
	{"xshard.wounds_per_parent", "count"},
	{"readpath.hit_frac", "ratio"},
	{"readpath.follower_frac", "ratio"},
	{"readpath.leader_frac", "ratio"},
	{"readpath.invalidations_per_write", "count"},
	{"readpath.watches_per_subscriber", "ratio"},
	{"runtime.alloc_kb_per_txn", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"self.late_ms_per_txn", "ms"},
	{"self.submit_ms_per_txn", "ms"},
	{"self.wait_ms_per_txn", "ms"},
	{"self.simulate_ms_per_txn", "ms"},
	{"self.constraint_ms_per_txn", "ms"},
	{"self.device_ms_per_txn", "ms"},
	{"trace.overhead_frac", "ratio"},
}...)

// workers is the platform's worker threads per shard (tropic's default).
const workers = 4

// layers computes the per-layer metrics of a traced pass; base is the
// untraced pass of the same run.
func (p *pass) layers(tr *tracer, cal calibration, base *pass) {
	v := p.vals
	b, a := p.before, p.after
	wall := p.phaseWall.Seconds()
	shards := float64(p.shards)

	var late, submit, notify, list, inputq, sched, exec, decide, finalize dist
	parents, children := 0, 0
	txns := 0
	for _, s := range append(append([]*sample(nil), p.open...), p.closed...) {
		if s.op.kind != opSubmit || s.rec == nil || s.err != nil {
			continue
		}
		txns++
		if s.rec.IsParent() {
			parents++
			children += len(s.rec.Children)
			if acc, dec := stampAt(s.rec, tropic.StateAccepted), stampAt(s.rec, tropic.StateDeciding); !acc.IsZero() && !dec.IsZero() {
				decide.add(ms(dec.Sub(acc)))
				finalize.add(ms(s.rec.CompletedAt.Sub(dec)))
			}
		}
	}
	for _, s := range p.open {
		late.add(ms(s.start.Sub(s.due)))
		switch s.op.kind {
		case opList:
			list.add(ms(s.returned.Sub(s.start)))
		case opSubmit:
			submit.add(ms(s.returned.Sub(s.start)))
			if s.rec == nil || s.err != nil {
				continue
			}
			h := s.rec.History
			notify.add(ms(s.done.Sub(h[len(h)-1].At)))
			st := stages(s.rec)
			inputq.add(st[0])
			sched.add(st[1])
			exec.add(st[2])
		}
	}
	nt := float64(txns)
	v["gen.late_p99_ms"], _ = late.tail(99)
	v["tropic.submit_ms.p50"] = submit.quantile(0.5)
	v["tropic.submit_ms.p99"], _ = submit.tail(99)
	v["tropic.notify_ms.p50"] = notify.quantile(0.5)
	v["tropic.list_ms.p50"] = list.quantile(0.5)
	v["stage.inputq_ms.p50"] = inputq.quantile(0.5)
	v["stage.inputq_ms.p99"], _ = inputq.tail(99)
	v["stage.schedule_ms.p50"] = sched.quantile(0.5)
	v["stage.schedule_ms.p99"], _ = sched.tail(99)
	v["stage.execute_ms.p50"] = exec.quantile(0.5)
	v["stage.execute_ms.p99"], _ = exec.tail(99)
	p.notes["gen.late_p99_ms"] = late.describe(99)
	p.notes["stage.inputq_ms.p99"] = inputq.describe(99)

	// Under SyncAlways every quorum round ends in exactly one WAL fsync;
	// a snapshot adds four more (file, directory, new segment, directory).
	fsyncs := float64(a.persist.Fsyncs - b.persist.Fsyncs)
	quorumRounds := math.Max(fsyncs-4*float64(a.persist.Snapshots-b.persist.Snapshots), 0)
	appends := float64(a.persist.WALAppends - b.persist.WALAppends)
	v["store.rounds_per_txn"] = ratio(quorumRounds, nt)
	v["store.ops_per_round"] = ratio(appends, quorumRounds)
	v["store.modeled_busy_frac"] = ratio(quorumRounds*cal.quorum.Seconds(), wall*shards)
	v["store.quorum_delay_realised_ms"] = ms(cal.quorum)
	v["store.wal_appends_per_txn"] = ratio(appends, nt)
	v["store.fsyncs_per_txn"] = ratio(fsyncs, nt)
	// A calibration reading, like the realised quorum delay: the store's
	// FsyncNanos counter times only explicit syncs, not the per-round
	// ones, so the fsync cost comes from the calibration probe.
	v["store.fsync_ms.mean"] = ms(cal.fsync)
	p.notes["store.fsync_ms.mean"] = "calibration probe: 4 KiB append + fsync in the work directory"
	p.notes["store.quorum_delay_realised_ms"] = "calibration probe"
	p.notes["device.action_delay_realised_ms"] = "calibration probe"

	v["queue.depth_max.inputq"] = float64(p.depth.max[0])
	v["queue.depth_max.todoq"] = float64(p.depth.max[1])
	v["queue.depth_max.phyq"] = float64(p.depth.max[2])
	p.notes["queue.depth_max.inputq"] = fmt.Sprintf("%d samples, every %s", p.depth.samples, depthEvery)

	c0, c1 := b.ctrl, a.ctrl
	terminal := float64((c1.Committed + c1.Aborted + c1.Failed) - (c0.Committed + c0.Aborted + c0.Failed))
	sims := float64(a.procs[0] - b.procs[0])
	v["controller.drain_items_per_round"] = ratio(float64(c1.InBatchItems-c0.InBatchItems), float64(c1.InBatches-c0.InBatches))
	v["controller.flush_ms.mean"] = ratio(float64(c1.FlushNanos-c0.FlushNanos)/1e6, float64(c1.Flushes-c0.Flushes))
	v["controller.busy_frac"] = ratio(float64(c1.BusyNanos-c0.BusyNanos)/1e9, wall*shards)
	v["controller.deferrals_per_txn"] = ratio(float64(c1.Deferrals-c0.Deferrals), nt)
	v["controller.useful_sim_frac"] = ratio(terminal, sims)
	v["controller.constraint_us_per_txn"] = ratio(float64(c1.ConstraintNanos-c0.ConstraintNanos)/1e3, nt)
	p.notes["controller.useful_sim_frac"] = fmt.Sprintf("%.0f terminal outcomes over %.0f procedure invocations", terminal, sims)

	var simD, devD dist
	for _, s := range tr.spans {
		switch s.Name {
		case spanSimulate:
			simD.add(float64(s.dur()) / 1e3)
		case spanDevice:
			devD.add(float64(s.dur()) / 1e6)
		}
	}
	v["model.simulate_us.p50"] = simD.quantile(0.5)
	v["model.simulations_per_txn"] = ratio(sims, nt)
	devCalls := float64(a.dev[0] - b.dev[0])
	v["device.call_ms.p50"] = devD.quantile(0.5)
	v["device.calls_per_txn"] = ratio(devCalls, nt)
	v["device.action_delay_realised_ms"] = ms(cal.action)
	v["worker.claim_wait_ms.p50"] = 1e3 * bucketQuantile(b.claim, a.claim, 0.5)
	v["worker.busy_frac"] = ratio(float64(a.dev[1]-b.dev[1])/1e9, wall*shards*workers)

	reg := func(name string) float64 { return a.reg[name] - b.reg[name] }
	v["xshard.parent_frac"] = ratio(float64(parents), nt)
	v["xshard.decide_ms.p50"] = decide.quantile(0.5)
	v["xshard.finalize_ms.p50"] = finalize.quantile(0.5)
	v["xshard.piggyback_frac"] = ratio(reg("tropic_xshard_piggyback_total"), float64(children))
	v["xshard.local_child_frac"] = ratio(reg("tropic_xshard_local_children_total"), float64(children))
	v["xshard.wounds_per_parent"] = ratio(reg("tropic_xshard_wounds_total"), float64(parents))

	hits, miss := float64(a.hits-b.hits), float64(a.miss-b.miss)
	var served [3]float64
	for i := range served {
		served[i] = float64(a.served[i] - b.served[i])
	}
	allServed := served[0] + served[1] + served[2]
	v["readpath.hit_frac"] = ratio(hits, hits+miss)
	v["readpath.follower_frac"] = ratio(served[1], allServed)
	v["readpath.leader_frac"] = ratio(served[2], allServed)
	v["readpath.invalidations_per_write"] = ratio(float64(a.inval-b.inval), appends)
	v["readpath.watches_per_subscriber"] = p.depth.perSub.mean()

	v["runtime.alloc_kb_per_txn"] = ratio((a.alloc-b.alloc)/1024, nt)
	v["runtime.gc_cpu_frac"] = ratio(a.gcCPU-b.gcCPU, a.allCPU-b.allCPU)

	self := layerSelfTimes(tr.spans)
	for name, key := range map[string]string{
		spanLate: "self.late_ms_per_txn", spanSubmit: "self.submit_ms_per_txn", spanWait: "self.wait_ms_per_txn",
		spanSimulate: "self.simulate_ms_per_txn", spanConstraint: "self.constraint_ms_per_txn", spanDevice: "self.device_ms_per_txn",
	} {
		v[key] = ratio(float64(self[name])/1e6, nt)
	}
	v["trace.overhead_frac"] = ratio(p.vals["commit_p50_ms"], base.vals["commit_p50_ms"]) - 1
	p.notes["trace.overhead_frac"] = fmt.Sprintf("commit p50 %.3f ms traced vs %.3f ms untraced; throughput %.1f vs %.1f txn/s",
		p.vals["commit_p50_ms"], base.vals["commit_p50_ms"], p.vals["throughput_tps"], base.vals["throughput_tps"])
}

// stampAt returns when the record entered state (zero if it never did).
func stampAt(rec *tropic.Txn, state tropic.State) time.Time {
	for _, h := range rec.History {
		if h.State == state {
			return h.At
		}
	}
	return time.Time{}
}

// stages splits a terminal record's History into the pipeline stages,
// in ms: inputQ (initialized → accepted), schedule (accepted → started,
// prepared or deciding, or straight to an abort), execute (that → the
// terminal state).
func stages(rec *tropic.Txn) [3]float64 {
	var out [3]float64
	h := rec.History
	acc := stampAt(rec, tropic.StateAccepted)
	if len(h) == 0 || acc.IsZero() {
		return out
	}
	end := h[len(h)-1].At
	out[0] = ms(acc.Sub(h[0].At))
	next := end
	for _, st := range h {
		if st.State == tropic.StateStarted || st.State == tropic.StatePrepared || st.State == tropic.StateDeciding {
			next = st.At
			break
		}
	}
	out[1] = ms(next.Sub(acc))
	out[2] = ms(end.Sub(next))
	return out
}

// layerSelfTimes links procedure, constraint and device spans to the
// transactions they served, then sums self time per span name (ns).
func layerSelfTimes(spans []span) map[string]int64 {
	linkSpans(spans)
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		if s.Parent >= 0 { // unlinked spans belong to no measured transaction (set-up seeding)
			out[s.Name] += self[i]
		}
	}
	return out
}

// linkSpans parents each procedure and device span to the Wait span of
// the transaction acting on the same VM whose lifetime contains it (the
// earliest such, when several are in flight), and each constraint span
// to the latest-starting procedure span containing it.
func linkSpans(spans []span) {
	waits := map[string][]int{}
	var procs []int
	for i, s := range spans {
		switch s.Name {
		case spanWait:
			waits[s.Key] = append(waits[s.Key], i)
		case spanSimulate:
			procs = append(procs, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanSimulate, spanDevice:
			for _, w := range waits[s.Key] {
				root := spans[spans[w].Parent]
				if s.Start >= root.Start && s.Start <= root.End {
					s.Parent, s.Txn = w, spans[w].Txn
					break
				}
			}
		}
	}
	sort.Slice(procs, func(i, j int) bool { return spans[procs[i]].Start < spans[procs[j]].Start })
	for i := range spans {
		s := &spans[i]
		if s.Name != spanConstraint {
			continue
		}
		k := sort.Search(len(procs), func(j int) bool { return spans[procs[j]].Start > s.Start })
		for k--; k >= 0; k-- {
			if pr := spans[procs[k]]; pr.End >= s.End {
				if pr.Parent >= 0 {
					s.Parent, s.Txn = procs[k], pr.Txn
				}
				break
			}
			if s.Start-spans[procs[k]].Start > int64(time.Second) {
				break
			}
		}
	}
}
