package simcore

import "fmt"

// Timer is a restartable one-shot callback on one engine: the engine's
// answer to "arm a deadline, push it back often, cancel it sometimes"
// (a transport's retransmission timer) without an event per arm.
//
// A Timer is observably identical to scheduling a fresh After closure
// on every Reset, guarded by a generation counter so only the latest
// one acts. Each Reset reserves exactly one sequence number, as After
// does, and records the reserved (deadline, seq) slot; the callback runs
// in that slot. The engine's clock also ends where it would have: a
// Reset's deadline is reached by some queued entry even after the timer
// is stopped or re-armed earlier, as the superseded closure would have
// been dispatched there, so a run that drains its queue finishes at the
// same instant.
//
// The queue cost differs. While deadlines only move later, the timer
// keeps one live entry queued. That entry fires at the earliest deadline
// it was pushed for and, finding the deadline moved, pushes itself again
// at the reserved slot (lazy re-arm). A Reset that moves the deadline
// earlier than the live entry pushes a new entry; the old one goes on to
// the latest deadline it covered and is dropped there.
//
// Entries come from an engine-local free list, so Reset does not
// allocate once the list is warm. Like every engine API, a Timer must
// only be used from its engine's processes and event callbacks.
type Timer struct {
	eng *Engine
	fn  func()
	// at and seq are the reserved slot of the pending expiry; armed is
	// false when none is pending.
	at    Time
	seq   int64
	armed bool
	// live is the queued entry that carries the timer to its slot: it
	// fires no later than (at, seq). Every other queued entry of this
	// timer is detached and only walks on to its cover.
	live *timerEntry
}

// timerEntry is one queued firing of a Timer. Its run closure is created
// once per pooled instance, as hopEvent's is in netsim.
type timerEntry struct {
	tm *Timer
	// t and seq are the slot the entry is queued at.
	t   Time
	seq int64
	// cover and coverSeq are the latest deadline reserved while this
	// entry was live, and that Reset's seq: the entry is dispatched
	// there last, as that Reset's closure would have been.
	cover    Time
	coverSeq int64
	run      func()
	free     *timerEntry
}

// NewTimer returns a stopped timer that runs fn on e when it expires.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{eng: e, fn: fn} }

// Engine returns the engine the timer schedules on.
func (tm *Timer) Engine() *Engine { return tm.eng }

// Reset (re)arms the timer to expire d from now, replacing any pending
// expiry. Negative d panics. Reset(0) expires at the current instant
// after every event already queued for it, exactly as After(0) would.
func (tm *Timer) Reset(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simcore: negative timer delay %v", d))
	}
	e := tm.eng
	e.seq++
	tm.at, tm.seq, tm.armed = e.now.Add(d), e.seq, true
	if en := tm.live; d > 0 && en != nil && en.t <= tm.at {
		// The live entry fires first and re-arms itself at the slot.
		if tm.at >= en.cover {
			en.cover, en.coverSeq = tm.at, tm.seq
		}
		return
	}
	en := e.timerFree
	if en == nil {
		en = &timerEntry{}
		en.run = en.fire
	} else {
		e.timerFree = en.free
		en.free = nil
	}
	en.tm, en.t, en.seq, en.cover, en.coverSeq = tm, tm.at, tm.seq, tm.at, tm.seq
	tm.live = en
	if d == 0 {
		// The reserved seq is the newest at this instant: FIFO path, as At.
		e.fifo = append(e.fifo, event{t: en.t, seq: en.seq, fn: en.run})
		return
	}
	// The seq is fresh too, so a delay lane may take it, as After's.
	e.schedule(event{t: en.t, seq: en.seq, fn: en.run})
}

// Stop cancels the pending expiry, if any. A queued entry stays queued:
// a later Reset may reuse it, and otherwise it runs on to its cover as
// a no-op.
func (tm *Timer) Stop() { tm.armed = false }

// fire runs when a queued entry comes due.
func (en *timerEntry) fire() {
	tm := en.tm
	e := tm.eng
	expire := false
	if tm.live == en {
		if tm.armed && (en.t != tm.at || en.seq != tm.seq) {
			// Fired before the deadline it now carries: move to the
			// reserved slot. That slot's seq was taken at an earlier
			// instant than now whenever its time is now, so it predates
			// every FIFO entry and belongs in the heap — and it may
			// predate a delay lane's tail, so no lane may take it.
			en.t, en.seq = tm.at, tm.seq
			e.heapPush(event{t: en.t, seq: en.seq, fn: en.run})
			return
		}
		expire = tm.armed
		tm.live, tm.armed = nil, false
	}
	if en.cover > e.now {
		// Detached short of its cover: walk on there as a no-op.
		en.t, en.seq = en.cover, en.coverSeq
		e.heapPush(event{t: en.t, seq: en.seq, fn: en.run})
	} else {
		en.tm = nil
		en.free = e.timerFree
		e.timerFree = en
	}
	if expire {
		tm.fn()
	}
}
