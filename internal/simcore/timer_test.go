package simcore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refTimer is the reference a Timer must be indistinguishable from: a
// fresh After closure per Reset, cancelled by a generation counter.
type refTimer struct {
	eng   *Engine
	fn    func()
	gen   int64
	armed bool
}

func (r *refTimer) Reset(d Duration) {
	r.gen++
	r.armed = true
	gen := r.gen
	r.eng.After(d, func() {
		if gen != r.gen || !r.armed {
			return
		}
		r.armed = false
		r.fn()
	})
}

func (r *refTimer) Stop() { r.armed = false }

type resetStopper interface {
	Reset(Duration)
	Stop()
}

// timerOp is one scripted action: at time at, Reset timer by d, Stop it,
// or (marker) schedule a logging event d from now — which lands on the
// same instants as timer deadlines, so ties are exercised.
type timerOp struct {
	at    Time
	timer int
	kind  int // 0 reset, 1 stop, 2 marker
	d     Duration
}

type timerScript struct {
	ops []timerOp
	// refire[i] is what the i-th expiry (across all timers) does from its
	// own callback: Reset itself by refire[i], or nothing when negative.
	refire []Duration
}

const scriptTimers = 3

func genTimerScript(seed int64) timerScript {
	rng := rand.New(rand.NewSource(seed))
	delays := []Duration{0, 1, 2, 3, 5, 8, 13}
	var sc timerScript
	n := 5 + rng.Intn(40)
	for i := 0; i < n; i++ {
		sc.ops = append(sc.ops, timerOp{
			at:    Time(rng.Intn(30)),
			timer: rng.Intn(scriptTimers),
			kind:  []int{0, 0, 0, 1, 2}[rng.Intn(5)],
			d:     delays[rng.Intn(len(delays))],
		})
	}
	for i := 0; i < 3*n; i++ {
		d := Duration(-1)
		if rng.Intn(3) == 0 {
			d = delays[rng.Intn(len(delays))]
		}
		sc.refire = append(sc.refire, d)
	}
	return sc
}

// runTimerScript plays sc on eng with timers built by mk, runs the
// simulation with run, and returns the callback log, ending with the
// instant the run finished at.
func runTimerScript(t *testing.T, eng *Engine, run func() error, sc timerScript,
	mk func(eng *Engine, fn func()) resetStopper) []string {
	t.Helper()
	var log []string
	timers := make([]resetStopper, scriptTimers)
	fires := 0
	for k := range timers {
		k := k
		timers[k] = mk(eng, func() {
			log = append(log, fmt.Sprintf("%d timer%d", eng.Now(), k))
			if fires < len(sc.refire) {
				if d := sc.refire[fires]; d >= 0 {
					timers[k].Reset(d)
				}
			}
			fires++
		})
	}
	for i, op := range sc.ops {
		i, op := i, op
		eng.At(op.at, func() {
			switch op.kind {
			case 0:
				timers[op.timer].Reset(op.d)
			case 1:
				timers[op.timer].Stop()
			case 2:
				eng.After(op.d, func() { log = append(log, fmt.Sprintf("%d marker%d", eng.Now(), i)) })
			}
		})
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return append(log, fmt.Sprintf("%d end", eng.Now()))
}

// fillers schedules the no-op events that keep the second shard busy in
// the parallel leg; the serial legs get them too, so every leg drains at
// the same horizon.
func fillers(eng *Engine) {
	for i := 1; i < 40; i += 4 {
		eng.At(Time(i), func() {})
	}
}

func newRefTimer(eng *Engine, fn func()) resetStopper  { return &refTimer{eng: eng, fn: fn} }
func newRealTimer(eng *Engine, fn func()) resetStopper { return eng.NewTimer(fn) }

// TestPropertyTimerMatchesAfter runs random Reset/Stop scripts — resets
// that move deadlines earlier and later, Reset(0), resets from inside
// the expiry callback, other events tied at the deadline instant — on a
// Timer and on the After-plus-generation reference, serially and on one
// shard of a 2-shard parallel engine, and requires the same callback log:
// the same expiry instants, the same interleaving with other events, and
// the same final clock (stopped and superseded deadlines are still
// reached, as the reference's dead closures are).
func TestPropertyTimerMatchesAfter(t *testing.T) {
	f := func(seed int64) bool {
		sc := genTimerScript(seed)
		ref := NewEngine(1)
		fillers(ref)
		want := runTimerScript(t, ref, ref.Run, sc, newRefTimer)
		eng := NewEngine(1)
		fillers(eng)
		got := runTimerScript(t, eng, eng.Run, sc, newRealTimer)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d serial:\n got  %v\n want %v", seed, got, want)
			return false
		}
		pe := NewParallelEngine(1, 2)
		pe.SetLookahead(3)
		// Shard 1 keeps its own clock ticking so windows interleave.
		fillers(pe.Shard(1))
		got = runTimerScript(t, pe.Shard(0), pe.Run, sc, newRealTimer)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d parallel:\n got  %v\n want %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTimerOneLiveEntry checks the queue bound: a timer whose deadline
// only moves later keeps at most one entry queued, however often it is
// reset, and still expires once, at the last deadline.
func TestTimerOneLiveEntry(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
	rng := rand.New(rand.NewSource(3))
	deadline := Time(0)
	maxQueued := 0
	var tick func()
	tick = func() {
		// Move the deadline later by a random step (or keep it), never
		// closer than the next tick.
		d := deadline.Sub(e.Now()) + Duration(rng.Intn(4))
		if d < 2 {
			d = 2
		}
		tm.Reset(d)
		deadline = e.Now().Add(d)
		// This tick is dispatched and the next not yet scheduled, so
		// only the timer's own entries are queued.
		if q := e.pending(); q > maxQueued {
			maxQueued = q
		}
		if e.Now() < 1000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxQueued > 1 {
		t.Fatalf("up to %d entries queued before the next tick, want 1", maxQueued)
	}
	if len(fired) != 1 || fired[0] != deadline {
		t.Fatalf("fired at %v, want once at %v", fired, deadline)
	}
}

// TestTimerResetAllocFree checks that a warm timer's Reset and expiry
// allocate nothing: entries come from the engine's free list.
func TestTimerResetAllocFree(t *testing.T) {
	e := NewEngine(1)
	tm := e.NewTimer(func() {})
	cycle := func() {
		tm.Reset(5)
		tm.Reset(2) // earlier: a second entry
		tm.Reset(7)
		if err := e.RunUntil(e.Now().Add(10)); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("Reset/expire cycle allocates %.1f times, want 0", a)
	}
}

func TestTimerNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Reset accepted")
		}
	}()
	e.NewTimer(func() {}).Reset(-1)
}
