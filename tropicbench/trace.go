package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/tcloud"
	"repro/tropic"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanTxn        = "txn"              // due time → the client observes the terminal state
	spanLate       = "gen.late"         // due time → the call is issued
	spanSubmit     = "tropic.submit"    // Client.Submit
	spanWait       = "tropic.wait"      // Client.Wait (parked until terminal)
	spanGet        = "tropic.get"       // Client.Get
	spanList       = "tropic.list"      // Client.List
	spanSimulate   = "model.simulate"   // one stored-procedure invocation
	spanConstraint = "model.constraint" // one constraint check
	spanDevice     = "device.call"      // one Executor call
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's origin; Parent is the index of the causing span, or
// -1. Txn names the transaction the span belongs to; procedure, device
// and constraint spans are linked to theirs after the run, through the
// VM name they act on (Key).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Txn    string `json:"txn,omitempty"`
	Key    string `json:"key,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent int, txnID, key string) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Parent: parent, Txn: txnID, Key: key}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's spans cover (overlapping children
// are counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		self[i] = s.dur() - covered(iv)
	}
	return self
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// meter counts one wrapped layer's calls and the time spent in them.
type meter struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (m *meter) observe(start, end time.Time) {
	m.calls.Add(1)
	m.nanos.Add(end.Sub(start).Nanoseconds())
}

// wrapProcedures wraps every stored procedure so each invocation (every
// simulation, including re-simulations after a deferral) is counted and,
// when tracing, kept as a span keyed by the VM it acts on.
func wrapProcedures(procs map[string]tropic.Procedure, m *meter, tr *tracer) map[string]tropic.Procedure {
	out := make(map[string]tropic.Procedure, len(procs))
	for name, p := range procs {
		out[name] = func(c *tropic.Ctx) error {
			start := time.Now()
			err := p(c)
			end := time.Now()
			m.observe(start, end)
			if tr != nil {
				tr.add(spanSimulate, start, end, -1, "", procVM(name, c.Args()))
			}
			return err
		}
	}
	return out
}

// procVM names the VM a TCloud procedure acts on.
func procVM(proc string, args []string) string {
	i := 1
	if proc == tcloud.ProcSpawnVM || proc == tcloud.ProcSpawnVMNet {
		i = 2
	}
	if i < len(args) {
		return args[i]
	}
	return ""
}

// traceConstraints wraps every constraint check of the schema in place
// so each check is kept as a span keyed by the path it checks.
func traceConstraints(s *tropic.Schema, tr *tracer) {
	for _, name := range s.EntityNames() {
		e, _ := s.Lookup(name)
		for i := range e.Constraints {
			check := e.Constraints[i].Check
			e.Constraints[i].Check = func(t *tropic.Tree, path string, n *tropic.Node) error {
				start := time.Now()
				err := check(t, path, n)
				tr.add(spanConstraint, start, time.Now(), -1, "", path)
				return err
			}
		}
	}
}

// deviceMeter wraps the platform's Executor: it counts every call, keeps the
// successful ones per action for the exactly-once check, and, when
// tracing, keeps each call as a span keyed by the VM it acts on.
type deviceMeter struct {
	next tropic.Executor
	tr   *tracer
	meter

	mu sync.Mutex
	ok map[string]int
}

func newDevice(next tropic.Executor, tr *tracer) *deviceMeter {
	return &deviceMeter{next: next, tr: tr, ok: make(map[string]int)}
}

func (d *deviceMeter) Execute(path, action string, args []string) error {
	start := time.Now()
	err := d.next.Execute(path, action, args)
	end := time.Now()
	d.observe(start, end)
	if err == nil {
		k := actionKey(path, action, args)
		d.mu.Lock()
		d.ok[k]++
		d.mu.Unlock()
	}
	if d.tr != nil {
		d.tr.add(spanDevice, start, end, -1, "", argVM(args))
	}
	return err
}

func (d *deviceMeter) succeeded() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.ok))
	for k, v := range d.ok {
		out[k] = v
	}
	return out
}

func actionKey(path, action string, args []string) string {
	return path + " " + action + " " + strings.Join(args, ",")
}

// argVM finds the generated VM name among a device call's arguments
// (either the VM itself or its "-img" disk image).
func argVM(args []string) string {
	for _, a := range args {
		a = strings.TrimSuffix(a, "-img")
		if len(a) == 8 && strings.HasPrefix(a, "vm") && strings.Trim(a[2:], "0123456789") == "" {
			return a
		}
	}
	return ""
}
