package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/shard"
	"repro/internal/workload"
	"repro/tcloud"
)

// opKind says which client call an operation makes.
type opKind int

const (
	opSubmit opKind = iota // Submit, then a parked Wait
	opGet                  // Get of an earlier record
	opList                 // one List page
)

// op is one generated client operation. The program receives only
// these: procedure names, arguments and record ids.
type op struct {
	kind opKind
	// at is the due time as an offset from the phase start (open loop).
	at   time.Duration
	proc string
	args []string
	// vm is the VM the operation acts on; its name is unique per run, so
	// procedure and device spans are linked back to transactions by it.
	vm string
	// target indexes the record an opGet reads or after which an opList
	// page starts; for a submission it is the submission's own place in
	// its phase, -1 when nothing reads it.
	target int
}

// spawner hands out spawnVM operations on a topology with
// one storage host per compute host, cycling through the hosts in a
// seeded order so consecutive spawns never share a lock.
//
// With pairs set, the cycle alternates between hosts whose storage and
// compute roots live on one shard and hosts whose roots span shards,
// so every stretch of spawns has the same share of cross-shard ones
// whatever the seed; and every pairEvery-th spawn group on a one-shard
// host is an affinity pair: a second VM on the same host, submitted
// with the first. The second of a pair defers behind the first in that
// shard's lock table. Spawns spanning shards never share a host while
// in flight.
type spawner struct {
	perm      []int
	next      int
	vm        int
	shards    *shard.Map
	pairEvery int
	oneShards int // one-shard groups handed out
}

func newSpawner(rng *rand.Rand, hosts int) *spawner {
	return &spawner{perm: rng.Perm(hosts)}
}

// pairs turns affinity pairs on for a platform of m's shards.
func (s *spawner) pairs(m *shard.Map, every int) {
	s.shards, s.pairEvery = m, every
	var one, span []int
	for _, h := range s.perm {
		if s.oneShard(h) {
			one = append(one, h)
		} else {
			span = append(span, h)
		}
	}
	s.perm = s.perm[:0]
	for len(one) > 0 || len(span) > 0 {
		if len(one) > 0 {
			s.perm, one = append(s.perm, one[0]), one[1:]
		}
		if len(span) > 0 {
			s.perm, span = append(s.perm, span[0]), span[1:]
		}
	}
}

func (s *spawner) spawn() op {
	h := s.perm[s.next%len(s.perm)]
	s.next++
	return s.spawnOn(h)
}

func (s *spawner) spawnOn(h int) op {
	name := vmName(s.vm)
	s.vm++
	return op{kind: opSubmit, proc: tcloud.ProcSpawnVM, vm: name, args: []string{
		tcloud.StorageHostPath(h), tcloud.ComputeHostPath(h), name, "1024",
	}}
}

// group returns the next spawn, followed by its affinity partner when
// this group is a pair.
func (s *spawner) group() []op {
	h := s.perm[s.next%len(s.perm)]
	out := []op{s.spawn()}
	if s.pairEvery == 0 || !s.oneShard(h) {
		return out
	}
	s.oneShards++
	if s.oneShards%s.pairEvery == 0 {
		out = append(out, s.spawnOn(h))
	}
	return out
}

// oneShard reports whether host h's storage and compute roots live on
// the same shard.
func (s *spawner) oneShard(h int) bool {
	return s.shards.Shard(shard.RootOf(tcloud.StorageHostPath(h))) == s.shards.Shard(shard.RootOf(tcloud.ComputeHostPath(h)))
}

func vmName(i int) string { return fmt.Sprintf("vm%06d", i) }

// ec2Arrivals replays the seeded EC2 trace around its surge, time
// compressed by the factor compress (trace seconds per second) into
// dur: each trace second's launches arrive at uniformly drawn instants
// within that (compressed) second.
func ec2Arrivals(rng *rand.Rand, seed int64, compress float64, dur time.Duration) []time.Duration {
	tr := workload.GenerateEC2Trace(seed)
	window := max(int(dur.Seconds()*compress), 1)
	from := workload.EC2PeakSecond - window/2
	sec := dur / time.Duration(window)
	var at []time.Duration
	for s := 0; s < window; s++ {
		for k := 0; k < tr.PerSecond[from+s]; k++ {
			at = append(at, time.Duration(s)*sec+time.Duration(rng.Int63n(int64(sec))))
		}
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// poissonArrivals draws arrivals at rate per second for dur: a Poisson
// process conditioned on its expected count, that is rate·dur arrivals
// at uniformly drawn instants. Fixing the count keeps the offered load,
// and with it the platform's contents, the same from seed to seed.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	at := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// pollReads places one status Get per write at uniformly drawn
// instants, each reading a record submitted at least readLag earlier:
// the tenant polling its own requests.
func pollReads(rng *rand.Rand, writes []time.Duration, dur time.Duration) []op {
	const readLag = 50 * time.Millisecond
	var reads []op
	for range writes {
		at := time.Duration(rng.Int63n(int64(dur)))
		n := sort.Search(len(writes), func(i int) bool { return writes[i] > at-readLag })
		if n == 0 {
			continue
		}
		reads = append(reads, op{kind: opGet, at: at, target: rng.Intn(n)})
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].at < reads[j].at })
	return reads
}

// hostingVMIndex returns the numeric suffix of a generated VM name.
func hostingVMIndex(name string) int {
	var i int
	fmt.Sscanf(name, "vm%d", &i)
	return i
}

// hostingOp converts a generator operation, naming the VM it acts on.
func hostingOp(o workload.Op) op {
	vm := ""
	switch o.Proc {
	case tcloud.ProcSpawnVM:
		vm = o.Args[2]
	default:
		vm = o.Args[1]
	}
	return op{kind: opSubmit, proc: o.Proc, args: o.Args, vm: vm}
}

// zipfTargets draws n record indexes over a population of size pop,
// Zipf-skewed (s=1.1) over a seeded permutation so the hot records are
// scattered through the population rather than its oldest members.
func zipfTargets(rng *rand.Rand, pop, n int) []int {
	perm := rng.Perm(pop)
	z := rand.NewZipf(rng, 1.1, 1, uint64(pop-1))
	out := make([]int, n)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}
