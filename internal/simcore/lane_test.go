package simcore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// slot is an event's place in the engine's total order.
type slot struct {
	t   Time
	seq int64
}

func (a slot) cmp(b slot) int {
	if a.t != b.t {
		return int(a.t - b.t)
	}
	return int(a.seq - b.seq)
}

// mixDelays are the delays (in mixUnit) the mix draws for lane-eligible
// events: more distinct values than there are lanes, so lanes are claimed,
// drained and reclaimed by other delays all run long.
var mixDelays = []Duration{1, 2, 3, 5, 8, 13}

const (
	mixUnit   = Microsecond
	mixEvents = 1500 // events each engine's mix schedules before it quiets
	mixLimit  = Time(200 * mixUnit)
	mixEnd    = Time(1) << 40
)

// mix is a seeded random workload on one engine: event callbacks that
// schedule more events at now (FIFO), at a lane delay or at an arbitrary
// one (heap, once the lanes are busy), restartable timers, worker
// processes sleeping and waiting on a Cond, kills and cross-shard sends.
// Every callback and process logs what it observes into log; events the
// mix schedules itself also record their (t, seq) slot, both when
// scheduled (want) and when run (got).
type mix struct {
	eng     *Engine
	peer    *mix // cross-shard destination, or nil
	rng     *rand.Rand
	cond    *Cond
	timers  []*Timer
	tslot   []slot // each timer's pending expiry slot
	armed   []bool
	workers []*Proc
	left    int
	base    int64 // the engine's seq before the mix, so logs are relative
	log     []string
	bad     []string // contract violations seen from inside callbacks
	want    []slot
	got     []slot
}

func newMix(eng *Engine, seed int64) *mix {
	m := &mix{eng: eng, rng: rand.New(rand.NewSource(seed)), cond: NewCond(eng), left: mixEvents, base: eng.seq}
	for i := 0; i < 3; i++ {
		i := i
		m.timers = append(m.timers, eng.NewTimer(func() { m.expire(i) }))
	}
	m.tslot = make([]slot, len(m.timers))
	m.armed = make([]bool, len(m.timers))
	for i := 0; i < 4; i++ {
		m.spawn(i)
	}
	for i := 0; i < 8; i++ {
		m.schedule(Duration(m.rng.Intn(4)) * mixUnit)
	}
	return m
}

func (m *mix) logf(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf("%v ", m.eng.Now())+fmt.Sprintf(format, args...))
}

// delay draws a schedule delay: 0 (FIFO), a lane delay, or any delay.
func (m *mix) delay() Duration {
	switch r := m.rng.Intn(10); {
	case r == 0:
		return 0
	case r < 7:
		return mixDelays[m.rng.Intn(len(mixDelays))] * mixUnit
	default:
		return Duration(1+m.rng.Intn(20)) * mixUnit
	}
}

// schedule queues a logging event d from now through At or After.
func (m *mix) schedule(d Duration) {
	if m.left <= 0 {
		return
	}
	m.left--
	e := m.eng
	var s slot
	fn := func() { m.run(s) }
	if m.rng.Intn(2) == 0 {
		e.After(d, fn)
	} else {
		e.At(e.Now().Add(d), fn)
	}
	s = slot{e.Now().Add(d), e.seq}
	m.want = append(m.want, s)
}

// run is every scheduled event's body: log, then act.
func (m *mix) run(s slot) {
	if s.t != m.eng.Now() {
		m.bad = append(m.bad, fmt.Sprintf("event for %v ran at %v", s.t, m.eng.Now()))
	}
	m.got = append(m.got, s)
	m.logf("ev %d", s.seq-m.base)
	for n := m.rng.Intn(3); n >= 0; n-- {
		m.act()
	}
}

func (m *mix) act() {
	e := m.eng
	switch r := m.rng.Intn(20); {
	case r < 11:
		m.schedule(m.delay())
	case r < 14:
		i := m.rng.Intn(len(m.timers))
		if m.rng.Intn(4) == 0 {
			m.timers[i].Stop()
			m.armed[i] = false
			return
		}
		d := m.delay()
		m.timers[i].Reset(d)
		m.tslot[i], m.armed[i] = slot{e.Now().Add(d), e.seq}, true
	case r < 16:
		m.logf("signal %v", m.cond.Signal(e.seq-m.base))
	case r == 16:
		m.logf("broadcast %d", m.cond.Broadcast())
	case r == 17:
		i := m.rng.Intn(len(m.workers))
		m.logf("kill w%d", i)
		e.Kill(m.workers[i])
		m.spawn(i)
	default:
		if m.peer != nil && m.left > 0 {
			m.left--
			peer := m.peer
			d := e.pe.Lookahead() + Duration(m.rng.Intn(3))*mixUnit
			e.SendTo(peer.eng, d, func() {
				peer.logf("cross from shard %d", e.ShardIndex())
				peer.act()
			})
		} else {
			m.schedule(m.delay())
		}
	}
}

// expire is timer i's callback.
func (m *mix) expire(i int) {
	if !m.armed[i] || m.tslot[i].t != m.eng.Now() {
		m.bad = append(m.bad, fmt.Sprintf("timer %d fired at %v, armed=%v for %v",
			i, m.eng.Now(), m.armed[i], m.tslot[i].t))
	}
	m.armed[i] = false
	m.got = append(m.got, m.tslot[i])
	m.want = append(m.want, m.tslot[i])
	m.logf("timer %d", i)
	m.act()
}

// spawn starts worker i, which sleeps, waits and yields at random until
// killed or shut down.
func (m *mix) spawn(i int) {
	gen := m.eng.seq - m.base
	w := m.eng.Spawn(fmt.Sprintf("w%d.%d", i, gen), func(p *Proc) {
		defer func() { m.logf("%s unwound", p.Name()) }()
		for {
			switch r := m.rng.Intn(5); {
			case r < 2:
				p.Sleep(m.delay())
				m.logf("%s slept", p.Name())
			case r == 2:
				v := m.cond.Wait(p)
				m.logf("%s woke %v", p.Name(), v)
			case r == 3:
				v, timedOut := m.cond.WaitTimeout(p, m.delay())
				m.logf("%s woke %v timedOut=%v", p.Name(), v, timedOut)
			default:
				p.Yield()
				m.logf("%s yielded", p.Name())
			}
		}
	})
	if i < len(m.workers) {
		m.workers[i] = w
	} else {
		m.workers = append(m.workers, w)
	}
}

// pinLanes occupies every delay lane with a placeholder far past the end
// of the run, so the mix after it is dispatched from the heap and FIFO
// alone: the reference (time, seq) order the lanes must reproduce.
func pinLanes(e *Engine) {
	for i := 0; i < numLanes; i++ {
		e.At(mixEnd+Time(i), func() {})
	}
}

// checkSlots requires the slots the mix ran to be exactly the ones it
// scheduled, in (t, seq) order, and every armed timer to have expired.
func checkSlots(t *testing.T, name string, m *mix) {
	t.Helper()
	for _, b := range m.bad {
		t.Errorf("%s: %s", name, b)
	}
	for i, armed := range m.armed {
		if armed {
			t.Errorf("%s: timer %d never expired", name, i)
		}
	}
	want := slices.Clone(m.want)
	slices.SortFunc(want, slot.cmp)
	if !reflect.DeepEqual(m.got, want) {
		t.Errorf("%s: %d events ran out of (t, seq) order or went missing (scheduled %d)", name, len(m.got), len(want))
	}
}

// runPhased runs to mixLimit, leaving events queued, then resumes to the
// end (short of any lane placeholder).
func runPhased(t *testing.T, runUntil func(Time) error) {
	t.Helper()
	for _, limit := range []Time{mixLimit, mixEnd - 1} {
		var dl *DeadlockError
		if err := runUntil(limit); err != nil && !errors.As(err, &dl) {
			t.Fatal(err)
		}
	}
}

// TestLaneOrderMatchesHeap checks the delay lanes against the engine's
// order contract on a seeded random mix: every event the mix schedules
// runs exactly once, in (t, seq) order, and the whole transcript —
// timers, kills, Cond wakeups, process unwinds at the RunUntil boundary,
// cross-shard deliveries — equals the run whose lanes are pinned, which
// dispatches from the heap and FIFO only.
func TestLaneOrderMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		serial := func(pin bool) *mix {
			e := NewEngine(seed)
			if pin {
				pinLanes(e)
			}
			m := newMix(e, seed)
			runPhased(t, e.RunUntil)
			return m
		}
		lanes, ref := serial(false), serial(true)
		checkSlots(t, fmt.Sprintf("seed %d", seed), lanes)
		checkSlots(t, fmt.Sprintf("seed %d pinned", seed), ref)
		if !reflect.DeepEqual(lanes.log, ref.log) {
			t.Fatalf("seed %d: lane transcript differs from heap order", seed)
		}
		if h := lanes.eng.HeapScheduled(); h == 0 || h*4 > lanes.eng.Dispatched()*3 {
			t.Errorf("seed %d: %d of %d events went through the heap, want some but under 3/4",
				seed, h, lanes.eng.Dispatched())
		}

		parallel := func(pin bool) [2]*mix {
			pe := NewParallelEngine(seed, 2)
			pe.SetLookahead(4 * mixUnit)
			var ms [2]*mix
			for i := range ms {
				if pin {
					pinLanes(pe.Shard(i))
				}
				ms[i] = newMix(pe.Shard(i), seed*10+int64(i))
			}
			ms[0].peer, ms[1].peer = ms[1], ms[0]
			runPhased(t, pe.RunUntil)
			return ms
		}
		pl, pr := parallel(false), parallel(true)
		for i := range pl {
			checkSlots(t, fmt.Sprintf("seed %d shard %d", seed, i), pl[i])
			if !reflect.DeepEqual(pl[i].log, pr[i].log) {
				t.Fatalf("seed %d shard %d: lane transcript differs from heap order", seed, i)
			}
		}
	}
}
