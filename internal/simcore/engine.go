// Package simcore provides a deterministic, process-oriented discrete-event
// simulation engine. It is the substrate on which every MicroGrid model
// (hosts, schedulers, networks, middleware) runs.
//
// Processes are ordinary goroutines, but the engine enforces that exactly one
// of them executes at a time: a process runs until it blocks on a simulation
// primitive (Sleep, Cond.Wait, Queue.Get, ...), at which point control
// returns to the engine, which advances virtual time to the next event.
// Every event carries its time and a sequence number drawn when it was
// scheduled, and the engine dispatches in that (time, sequence) total
// order — whether an event waits in the same-instant FIFO, a constant-delay
// lane or the heap (see Engine) — so runs are bit-for-bit deterministic
// for a given seed.
package simcore

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"microgrid/internal/trace"
)

// Time is a point in simulated time, in nanoseconds from the start of the
// simulation.
type Time int64

// Duration is a span of simulated time, in nanoseconds. It is distinct from
// time.Duration only by intent; helper constructors accept time.Duration.
type Duration = time.Duration

// Common duration units re-exported for convenience.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return Duration(t).String()
}

// DurationOfSeconds converts floating-point seconds to a Duration, rounding
// to the nearest nanosecond (negative spans round to nearest too).
func DurationOfSeconds(s float64) Duration {
	return Duration(math.Round(s * 1e9))
}

// event is a scheduled callback. Events are stored by value — no per-event
// pointer, no interface boxing — in one of the engine's three queues
// (see Engine), all ordered by (t, seq).
type event struct {
	t   Time
	seq int64
	fn  func()
}

// before reports whether a sorts before b in the (time, seq) total order.
// Sequence numbers are unique, so this is a strict total order.
func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// Engine is a discrete-event simulator. Create one with NewEngine, spawn
// processes and schedule events, then call Run.
//
// An Engine is not safe for concurrent use from outside its own processes;
// all interaction must happen from process goroutines or before/after Run.
type Engine struct {
	now Time
	// Pending events wait in one of three queues, and dispatch always
	// takes the (t, seq)-least head among them:
	//
	//   - fifo holds events scheduled for the current instant while it
	//     executes, in append (= seq) order;
	//   - lanes each hold events scheduled with one delay d, in append
	//     order — which is (t, seq) order, because now never decreases
	//     and seq strictly increases, so a later append has t' = now'+d
	//     ≥ t and seq' > seq;
	//   - heap, a 4-ary min-heap, holds everything else: delays no lane
	//     carries, and Timer re-arms, whose reserved seq may be older
	//     than a lane's tail.
	//
	// Placement decides how cheaply an event is found, never when it
	// runs. A heap or lane entry at t == now was scheduled before time
	// reached now, so it predates every fifo entry and runs first.
	// Same-instant bursts (Kill handshakes, Cond wakeups, After(0)) and
	// constant-delay streams (a link's propagation and serialization)
	// cost a ring append and a head compare instead of a heap sift.
	heap     []event
	lanes    [numLanes]lane
	fifo     []event
	fifoHead int
	seq      int64
	ctl      chan struct{} // a running process signals here when it parks or exits
	procs    map[*Proc]struct{}
	nprocs   int
	rng      *rand.Rand
	stopped  bool
	rec      *trace.Recorder
	// baseSeed is the user-level seed shared by every shard of a run:
	// DeriveRand mixes it with entity labels so derived streams are
	// identical at any shard count (see DeriveRand).
	baseSeed int64
	// pe and shard bind this engine into a ParallelEngine; nil/0 for a
	// stand-alone serial engine.
	pe    *ParallelEngine
	shard int
	// dispatched counts executed events, for events/sec reporting;
	// heaped counts events scheduled onto the heap rather than a lane or
	// the fifo.
	dispatched int64
	heaped     int64
	// timerFree is the free list of Timer queue entries (see timer.go).
	timerFree *timerEntry
}

// NewEngine returns an engine with a deterministic random source derived
// from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		ctl:      make(chan struct{}),
		procs:    make(map[*Proc]struct{}),
		rng:      rand.New(rand.NewSource(seed)),
		baseSeed: seed,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation processes or event callbacks, never concurrently.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// DeriveRand returns a deterministic random stream for a named entity.
// The stream's seed mixes the run's base seed with a hash of label only —
// never with build order or shard identity — so a given entity draws the
// same sequence no matter how the model is partitioned across shards.
// Each call returns a fresh stream positioned at its start; callers that
// need a persistent per-entity stream must hold on to the result.
func (e *Engine) DeriveRand(label string) *rand.Rand {
	// FNV-1a over the label, folded into the base seed.
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	seed := int64(h ^ uint64(e.baseSeed)*0x9e3779b97f4a7c15)
	return rand.New(rand.NewSource(seed))
}

// SetBaseSeed overrides the seed DeriveRand mixes entity labels with.
// ParallelEngine uses it so every shard derives identical per-entity
// streams from the one user seed even though shard event streams are
// decorrelated.
func (e *Engine) SetBaseSeed(seed int64) { e.baseSeed = seed }

// ShardIndex returns this engine's shard number within its parallel
// engine (0 for a stand-alone serial engine).
func (e *Engine) ShardIndex() int { return e.shard }

// Parallel returns the ParallelEngine this engine is a shard of, or nil.
func (e *Engine) Parallel() *ParallelEngine { return e.pe }

// Dispatched returns the number of events this engine has executed.
func (e *Engine) Dispatched() int64 { return e.dispatched }

// HeapScheduled returns the number of events this engine has scheduled
// onto its heap — those no delay lane or the same-instant FIFO took.
func (e *Engine) HeapScheduled() int64 { return e.heaped }

// SendTo schedules fn on engine dst, d from now. On the same engine it is
// exactly After; across shards of one ParallelEngine it becomes a
// conservative cross-shard Send, which requires d to be at least the
// engine's lookahead. Engines not related through a common ParallelEngine
// cannot exchange events and panic.
func (e *Engine) SendTo(dst *Engine, d Duration, fn func()) {
	if dst == e {
		e.After(d, fn)
		return
	}
	if e.pe == nil || e.pe != dst.pe {
		panic("simcore: SendTo between unrelated engines")
	}
	e.pe.Send(e.shard, dst.shard, e.now.Add(d), fn)
}

// SetRecorder attaches a structured trace recorder (nil detaches). The
// recorder's clock is bound to the engine's virtual time, so every record
// carries the simulated timestamp of its emission.
func (e *Engine) SetRecorder(r *trace.Recorder) {
	e.rec = r
	if r != nil {
		r.SetClock(func() int64 { return int64(e.now) })
	}
}

// Recorder returns the attached trace recorder. It may be nil; trace
// emission methods are nil-safe, so call sites can use it unguarded:
//
//	if rec := eng.Recorder(); rec.Enabled(trace.CatNet) { rec.Event(...) }
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error and panics: it would silently corrupt causality.
//
// Events at the current instant are appended to the same-instant FIFO,
// later ones to the delay lane for t-now or, failing that, the heap (see
// Engine).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("simcore: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.fifo = append(e.fifo, event{t: t, seq: e.seq, fn: fn})
		return
	}
	e.schedule(event{t: t, seq: e.seq, fn: fn})
}

// numLanes is the number of delay lanes. A packet path needs about
// three (propagation, and serialization of data and ack segments); a
// few more only lengthen the head scan every dispatch pays.
const numLanes = 4

// lane is a ring-buffer FIFO of events all scheduled with delay d. Its
// buffer is allocated on first use, with a power-of-two length.
type lane struct {
	d    Duration
	buf  []event
	head int
	n    int
}

// schedule queues ev, whose t is after now and whose seq was drawn just
// now: on the lane carrying its delay, else on an empty lane it claims,
// else on the heap. An event carrying an older seq must use heapPush, as
// appending it could break the lane's order.
func (e *Engine) schedule(ev event) {
	d := ev.t.Sub(e.now)
	var free *lane
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.d == d {
			l.push(ev)
			return
		}
		if l.n == 0 && free == nil {
			free = l
		}
	}
	if free == nil {
		e.heapPush(ev)
		return
	}
	free.d = d
	free.push(ev)
}

// push appends ev, doubling the ring when it is full.
func (l *lane) push(ev event) {
	if l.n == len(l.buf) {
		buf := make([]event, max(2*len(l.buf), 16))
		k := copy(buf, l.buf[l.head:])
		copy(buf[k:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

// pop removes and returns the head event.
func (l *lane) pop() event {
	ev := l.buf[l.head]
	l.buf[l.head] = event{} // release the fn reference
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return ev
}

// heapPush inserts ev into the 4-ary heap, sifting up with hole shifting.
func (e *Engine) heapPush(ev event) {
	e.heaped++
	e.heap = append(e.heap, event{})
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].before(&ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// heapPop removes and returns the minimum event.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the fn reference
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown places ev starting from the root, shifting smaller children up.
func (e *Engine) siftDown(ev event) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[m]) {
				m = c
			}
		}
		if !h[m].before(&ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// pending reports the number of scheduled events.
func (e *Engine) pending() int {
	n := len(e.heap) + len(e.fifo) - e.fifoHead
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simcore: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// Stop ends the simulation: Run returns after the current event completes.
// Pending events are discarded.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// DeadlockError is returned by Run when the event queue drains while
// processes are still blocked: nothing can ever wake them.
type DeadlockError struct {
	// Blocked lists the names of the permanently blocked processes.
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("simcore: deadlock: %d process(es) blocked forever: %s",
		len(d.Blocked), strings.Join(d.Blocked, ", "))
}

// Run executes events until the queue is empty or Stop is called, then shuts
// down any remaining parked processes. If the queue drained while
// non-daemon processes were still blocked, Run returns a *DeadlockError
// (after shutdown); otherwise nil.
func (e *Engine) Run() error {
	return e.RunUntil(maxTime)
}

// RunUntil executes events with time ≤ limit, then stops. Events beyond the
// limit remain unexecuted; parked processes are shut down as in Run.
func (e *Engine) RunUntil(limit Time) error {
	end := limit + 1 // t ≤ limit ⇔ t < limit+1
	if end <= limit {
		end = maxTime
	}
	e.runWindow(end)
	var blocked []string
	for p := range e.procs {
		if !p.daemon {
			blocked = append(blocked, p.name)
		}
	}
	sort.Strings(blocked)
	e.shutdown()
	if len(blocked) > 0 && !e.stopped && e.pending() == 0 {
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// earliest returns the (t, seq)-least of the heap top and the lane heads
// — where it waits (lane index, or -1 for the heap) and a pointer to it
// — or nil when both are empty.
func (e *Engine) earliest() (src int, ev *event) {
	src = -1
	if len(e.heap) > 0 {
		ev = &e.heap[0]
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.n == 0 {
			continue
		}
		if h := &l.buf[l.head]; ev == nil || h.before(ev) {
			src, ev = i, h
		}
	}
	return src, ev
}

// nextEventTime reports the time of the earliest pending event, or
// ok=false when nothing is scheduled. The FIFO only holds events for the
// current instant, so a non-empty FIFO means the next event is at now.
func (e *Engine) nextEventTime() (t Time, ok bool) {
	if e.fifoHead < len(e.fifo) {
		return e.now, true
	}
	if _, ev := e.earliest(); ev != nil {
		return ev.t, true
	}
	return 0, false
}

// runWindow executes events in (t, seq) order until Stop is called or the
// next one is at or after end — one conservative-PDES time window, or a
// whole RunUntil — and leaves end-of-run bookkeeping (blocked-process
// collection, shutdown) to the caller. Events at now always run. The
// strict bound is what makes windows composable: an event executing at
// t < end may schedule locally at any t' ≥ now, and cross-shard events
// injected later are guaranteed to be at ≥ end, so they can never be in
// this window's past.
func (e *Engine) runWindow(end Time) {
	for !e.stopped {
		var ev event
		src, next := e.earliest()
		if e.fifoHead < len(e.fifo) && (next == nil || next.t != e.now) {
			// No heap or lane entry is at now; those that are were
			// scheduled before any FIFO entry and run first.
			ev = e.fifo[e.fifoHead]
			e.fifo[e.fifoHead] = event{} // release the fn reference
			e.fifoHead++
			if e.fifoHead == len(e.fifo) {
				e.fifo = e.fifo[:0]
				e.fifoHead = 0
			}
		} else if next == nil || next.t >= end {
			// Out-of-range events stay queued unexecuted.
			return
		} else if src < 0 {
			ev = e.heapPop()
		} else {
			ev = e.lanes[src].pop()
		}
		e.now = ev.t
		if e.rec.Enabled(trace.CatEngine) {
			e.rec.Event(trace.CatEngine, "dispatch", trace.Attr{})
		}
		e.dispatched++
		ev.fn()
	}
}

// shutdown aborts all parked processes, in id order, so their goroutines
// exit. Each pass snapshots and sorts the survivors once; deferred cleanup
// in an aborted process may spawn new processes (always with higher ids),
// which the next pass picks up — the same order the old per-abort min-id
// rescan produced, without its O(n²) cost.
func (e *Engine) shutdown() {
	for len(e.procs) > 0 {
		batch := make([]*Proc, 0, len(e.procs))
		for p := range e.procs {
			batch = append(batch, p)
		}
		sort.Slice(batch, func(i, j int) bool { return batch[i].id < batch[j].id })
		for _, p := range batch {
			if _, live := e.procs[p]; live {
				e.abort(p)
			}
		}
	}
}

// Kill condemns a process: at the current instant (after events already
// queued for it) the process is aborted at its blocking point and its
// goroutine unwinds, running any deferred cleanup in process functions.
// Wakeups already scheduled for the victim are discarded, and Cond
// signals pass it over, so killing a process never strands a signal or
// corrupts the event order. Killing an exited or already-condemned
// process is a no-op. Safe to call from event callbacks and from other
// processes (including the victim itself).
func (e *Engine) Kill(p *Proc) {
	if p == nil || p.killed || p.state == procDead {
		return
	}
	p.killed = true
	if e.rec.Enabled(trace.CatProc) {
		e.rec.Event(trace.CatProc, "kill", trace.Attr{Detail: p.name})
	}
	// The abort handshake must run from the engine's event loop — never
	// from another process goroutine — so route it through the heap.
	e.At(e.now, func() {
		if p.state != procParked {
			// Already exited (state reached procDead before delivery), or
			// self-kill delivered while the victim still runs: in the
			// latter case the victim parks or exits within this instant
			// and the killed flag stops any later resume; if it parks, a
			// fresh abort event finishes the job.
			if p.state == procRunning {
				e.At(e.now, func() {
					if p.state == procParked {
						e.abort(p)
					}
				})
			}
			return
		}
		e.abort(p)
	})
}

// abort resumes p with the abort flag; p's park panics with errAborted,
// which the spawn wrapper recovers, terminating the goroutine.
func (e *Engine) abort(p *Proc) {
	if p.state != procParked {
		panic("simcore: aborting a process that is not parked")
	}
	if e.rec.Enabled(trace.CatProc) {
		e.rec.Event(trace.CatProc, "abort", trace.Attr{Detail: p.name})
	}
	delete(e.procs, p)
	p.state = procRunning
	p.resume <- wakeup{abort: true}
	<-e.ctl
}
