package netsim

import (
	"fmt"
	"testing"

	"microgrid/internal/simcore"
)

// bulkTransfer streams total bytes from a to b in msg-sized messages
// over one link with cfg and returns the sender's stats, the virtual
// time the receiver got the last byte, and the events the engine
// dispatched.
func bulkTransfer(tb testing.TB, seed int64, cfg LinkConfig, total, msg int) (ConnStats, simcore.Time, int64) {
	tb.Helper()
	eng := simcore.NewEngine(seed)
	_, a, b := twoHosts(eng, cfg)
	ln, err := b.Listen(80)
	if err != nil {
		tb.Fatal(err)
	}
	var client *Conn
	var done simcore.Time
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			tb.Error(err)
			return
		}
		for got := 0; got < total; {
			m, err := c.Recv(p)
			if err != nil {
				tb.Error(err)
				return
			}
			got += m.Size
		}
		done = p.Now()
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			tb.Error(err)
			return
		}
		client = c
		for sent := 0; sent < total; sent += msg {
			if err := c.Send(p, msg, nil); err != nil {
				tb.Error(err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
	if client == nil {
		tb.Fatal("client never connected")
	}
	return client.Stats, done, eng.Dispatched()
}

// TestRTOExpiriesPinned pins a lossy transfer's recovery history — RTO
// expiries, retransmissions, fast retransmits — and its completion time.
// Real timeouts must keep firing at exactly the instants they always
// did, however the retransmission timer is scheduled internally.
func TestRTOExpiriesPinned(t *testing.T) {
	cases := []struct {
		loss                     float64
		timeouts, retx, fastRetx int64
		segments                 int64
		done                     simcore.Time
	}{
		{0.05, 1, 10, 5, 194, 368535481},
		{0.20, 43, 3, 3, 265, 2417974398},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("loss=%.2f", tc.loss), func(t *testing.T) {
			st, done, _ := bulkTransfer(t, 11, LinkConfig{
				BandwidthBps: 10e6, Delay: 5 * simcore.Millisecond, LossProb: tc.loss,
			}, 256*1024, 16*1024)
			got := fmt.Sprintf("timeouts=%d retx=%d fastRetx=%d segments=%d done=%d",
				st.Timeouts, st.Retransmits, st.FastRetransmits, st.SegmentsSent, int64(done))
			want := fmt.Sprintf("timeouts=%d retx=%d fastRetx=%d segments=%d done=%d",
				tc.timeouts, tc.retx, tc.fastRetx, tc.segments, int64(tc.done))
			if got != want {
				t.Fatalf("got  %s\nwant %s", got, want)
			}
		})
	}
}

// TestBulkTransferCeilings bounds the packet path's cost per data
// segment on a lossless bulk transfer, in machine-independent units:
// dispatched events and heap allocations. A data segment and its ack
// each take two events (serialize, propagate); the rest is the sender
// re-checking send-buffer space on each ack and the retransmission
// timer's occasional re-arm. Measured: 4.69 events and 3.56 allocs per
// segment, against 6.52 and 7.37 with a closure per RTO arm, a boxed
// timestamp per segment and a fresh interval slice per received segment.
// A new per-segment timer event or allocation shows up as a step past
// the ceiling.
func TestBulkTransferCeilings(t *testing.T) {
	cfg := LinkConfig{BandwidthBps: 100e6, Delay: 100 * simcore.Microsecond}
	const total, msg = 4 << 20, 64 << 10
	st, _, events := bulkTransfer(t, 1, cfg, total, msg)
	perSeg := float64(events) / float64(st.SegmentsSent)
	allocs := testing.AllocsPerRun(1, func() { bulkTransfer(t, 1, cfg, total, msg) })
	allocsPerSeg := allocs / float64(st.SegmentsSent)
	t.Logf("segments=%d events/segment=%.3f allocs/segment=%.3f", st.SegmentsSent, perSeg, allocsPerSeg)
	const maxEvents, maxAllocs = 5.0, 4.0
	if perSeg > maxEvents {
		t.Fatalf("events/segment = %.3f exceeds the %.1f ceiling", perSeg, maxEvents)
	}
	if allocsPerSeg > maxAllocs {
		t.Fatalf("allocs/segment = %.3f exceeds the %.1f ceiling", allocsPerSeg, maxAllocs)
	}
}
