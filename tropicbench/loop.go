package main

import (
	"context"
	"sync"
	"time"

	"repro/tropic"
)

// waitTimeout bounds one parked Wait; a transaction still not terminal
// after it counts as failed and fails the correctness gate.
const waitTimeout = 60 * time.Second

// sample is one attempted operation and what the client saw of it.
type sample struct {
	op   op
	lane int
	// due is when the operation was due (open loop) or when a window
	// slot freed for it (closed loop); start is when the call was
	// issued, returned when it came back, done when the parked Wait
	// observed the terminal state.
	due, start, returned, done time.Time
	id                         string
	rec                        *tropic.Txn
	err                        error
}

// latency is due time → the client has its answer: Wait's return for a
// transaction, the call's return for a read.
func (s *sample) latency() time.Duration {
	if s.op.kind == opSubmit {
		return s.done.Sub(s.due)
	}
	return s.returned.Sub(s.due)
}

func (s *sample) committed() bool {
	return s.err == nil && s.rec != nil && s.rec.State == tropic.StateCommitted
}

// runner issues operations against one platform through one client
// session per lane.
type runner struct {
	ctx     context.Context
	e       *env
	tr      *tracer
	waiters sync.WaitGroup

	// ids maps the read targets of the current phase to record ids:
	// the population, or the phase's own submissions in due order.
	mu  sync.Mutex
	ids []string
}

// setTargets makes reads in the next phase address ids; submissions
// with a seq fill it in as they return.
func (r *runner) setTargets(ids []string) {
	r.mu.Lock()
	r.ids = ids
	r.mu.Unlock()
}

// target returns the record a read addresses: the one it names, or the
// nearest earlier one already submitted when the submitter lags behind.
func (r *runner) target(i int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; i >= 0; i-- {
		if i < len(r.ids) && r.ids[i] != "" {
			return r.ids[i]
		}
	}
	return ""
}

func (r *runner) publish(seq int, id string) {
	if seq < 0 {
		return
	}
	r.mu.Lock()
	if seq < len(r.ids) {
		r.ids[seq] = id
	}
	r.mu.Unlock()
}

// exec issues one operation. A submission parks a Wait in its own
// goroutine and returns; release, if non-nil, runs once the operation
// is finished (the closed loop's window slot).
func (r *runner) exec(s *sample, seq int, release func()) {
	cli := r.e.clients[s.lane]
	s.start = time.Now()
	switch s.op.kind {
	case opSubmit:
		id, err := cli.Submit(s.op.proc, s.op.args...)
		s.returned = time.Now()
		if err != nil {
			s.err = err
			r.traceCall(s, spanSubmit)
			if release != nil {
				release()
			}
			return
		}
		s.id = id
		r.publish(seq, id)
		r.waiters.Add(1)
		go func() {
			defer r.waiters.Done()
			ctx, cancel := context.WithTimeout(r.ctx, waitTimeout)
			s.rec, s.err = cli.Wait(ctx, id)
			s.done = time.Now()
			cancel()
			r.traceTxn(s)
			if release != nil {
				release()
			}
		}()
		return
	case opGet:
		id := r.target(s.op.target)
		s.rec, s.err = cli.Get(id)
		s.id = id
		s.returned = time.Now()
		r.traceCall(s, spanGet)
	case opList:
		_, s.err = cli.List(tropic.ListOptions{Cursor: r.target(s.op.target), Limit: listPage})
		s.returned = time.Now()
		r.traceCall(s, spanList)
	}
	if release != nil {
		release()
	}
}

// listPage is the page size of a tenant's List call.
const listPage = 20

// traceTxn records a finished transaction's spans: the root (due →
// terminal observed), the generator's lateness, Submit and Wait.
func (r *runner) traceTxn(s *sample) {
	if r.tr == nil {
		return
	}
	root := r.tr.add(spanTxn, s.due, s.done, -1, s.id, s.op.vm)
	r.tr.add(spanLate, s.due, s.start, root, s.id, "")
	r.tr.add(spanSubmit, s.start, s.returned, root, s.id, "")
	r.tr.add(spanWait, s.returned, s.done, root, s.id, s.op.vm)
}

// traceCall records a read or a failed submission.
func (r *runner) traceCall(s *sample, name string) {
	if r.tr == nil {
		return
	}
	r.tr.add(name, s.start, s.returned, -1, s.id, "")
}

// openLoop issues each lane's operations at their due times, whatever
// the platform's progress: a lane that falls behind issues the overdue
// operations at once, and their latency still counts from their due
// times. do issues one operation (seq is a submission's place in the
// phase's submissions, -1 for reads).
func openLoop(ops [][]op, t0 time.Time, do func(s *sample, seq int)) []*sample {
	var (
		wg  sync.WaitGroup
		out = make([][]*sample, len(ops))
	)
	for lane := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range ops[lane] {
				due := t0.Add(o.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := &sample{op: o, lane: lane, due: due}
				seq := -1
				if o.kind == opSubmit {
					seq = o.target
				}
				do(s, seq)
				out[lane] = append(out[lane], s)
			}
		}()
	}
	wg.Wait()
	return flatten(out)
}

// closedLoop keeps at most window transactions outstanding across the
// lanes for dur, then waits until every parked Wait returns. It
// reports false when a lane ran out of operations before the end.
func (r *runner) closedLoop(ops [][]op, window int, t0 time.Time, dur time.Duration) ([]*sample, bool) {
	var (
		wg     sync.WaitGroup
		out    = make([][]*sample, len(ops))
		sem    = make(chan struct{}, window)
		end    = t0.Add(dur)
		timer  = time.NewTimer(time.Until(end))
		stop   = make(chan struct{})
		enough = true
		mu     sync.Mutex
	)
	go func() {
		<-timer.C
		close(stop)
	}()
	for lane := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range ops[lane] {
				select {
				case sem <- struct{}{}:
				case <-stop:
					return
				}
				now := time.Now()
				if !now.Before(end) {
					<-sem
					return
				}
				s := &sample{op: o, lane: lane, due: now}
				r.exec(s, -1, func() { <-sem })
				out[lane] = append(out[lane], s)
			}
			mu.Lock()
			enough = false
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.waiters.Wait()
	<-stop
	return flatten(out), enough
}

func flatten(in [][]*sample) []*sample {
	var out []*sample
	for _, x := range in {
		out = append(out, x...)
	}
	return out
}
