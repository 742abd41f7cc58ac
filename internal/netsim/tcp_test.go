package netsim

import (
	"fmt"
	"strings"
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

// wanTCPReport runs a two-way TCP message exchange between hosts a and b
// on separate campus LANs joined by a two-hop WAN (1 ms + 2 ms, so the
// path delay is over twice the 1 ms inter-cluster lookahead) and returns
// every delivery instant and both endpoints' stats. shards == 0 runs
// serially; otherwise each cluster runs on shard (cluster index mod
// shards), as partitioning places it.
func wanTCPReport(t *testing.T, shards int) string {
	t.Helper()
	const seed = 5
	var sim simcore.Sim
	var eng *simcore.Engine
	var pe *simcore.ParallelEngine
	if shards == 0 {
		eng = simcore.NewEngine(seed)
		sim = eng
	} else {
		pe = simcore.NewParallelEngine(seed, shards)
		eng, sim = pe.Shard(0), pe
	}
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.1.1"))
	ga, gb, r := nw.AddRouter("ga"), nw.AddRouter("gb"), nw.AddRouter("r")
	lan := LinkConfig{BandwidthBps: 100e6, Delay: 100 * simcore.Microsecond}
	nw.Connect(a, ga, lan)
	nw.Connect(b, gb, lan)
	nw.Connect(ga, r, LinkConfig{BandwidthBps: 45e6, Delay: simcore.Millisecond})
	nw.Connect(r, gb, LinkConfig{BandwidthBps: 45e6, Delay: 2 * simcore.Millisecond})
	nw.ComputeRoutes()
	if pe != nil {
		la, _ := nw.InterClusterMinDelay()
		if d, _, _ := nw.PathDelay(a, b); d < 2*la {
			t.Fatalf("path delay %v is under twice the lookahead %v", d, la)
		}
		pe.SetLookahead(la)
		for ci, cl := range nw.Clusters() {
			for _, nd := range cl {
				nw.SetNodeEngine(nd, pe.Shard(ci%shards))
			}
		}
		if a.Engine() == b.Engine() {
			t.Fatal("a and b share a shard")
		}
	}

	sizes := []int{0, 1, 1460, 5000, 64 << 10, 3, 200000, 10, 1461, 0, 7}
	var log strings.Builder
	var server, client *Conn
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	b.Engine().Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		server = c
		for range sizes {
			m, err := c.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprintf(&log, "b recv t=%d size=%d payload=%v\n", p.Now(), m.Size, m.Payload)
			if err := c.Send(p, m.Size/2, m.Payload); err != nil {
				t.Error(err)
				return
			}
		}
	})
	var replies strings.Builder
	a.Engine().Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		client = c
		for i, sz := range sizes {
			if err := c.Send(p, sz, i); err != nil {
				t.Error(err)
				return
			}
		}
		for range sizes {
			m, err := c.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprintf(&replies, "a recv t=%d size=%d payload=%v\n", p.Now(), m.Size, m.Payload)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if client == nil || server == nil {
		t.Fatal("connection never established")
	}
	return fmt.Sprintf("%s%sclient %+v\nserver %+v\n", log.String(), replies.String(), client.Stats, server.Stats)
}

// TestCrossShardTCPMatchesSerial: message boundaries cross shards after
// the lookahead rather than the path delay, which must not move any
// delivery. The partitioned run's report equals the serial run's.
func TestCrossShardTCPMatchesSerial(t *testing.T) {
	serial := wanTCPReport(t, 0)
	if got := wanTCPReport(t, 2); got != serial {
		t.Fatalf("2-shard report differs from serial:\n--- serial\n%s--- 2 shards\n%s", serial, got)
	}
	if strings.Count(serial, "recv") != 22 {
		t.Fatalf("report is missing deliveries:\n%s", serial)
	}
}

// TestConnKeyPacking checks that a packed connection key keeps its three
// fields and that keys compare as integers in (local, remote, remotePort)
// order, the order a crashed node tears its connections down in.
func TestConnKeyPacking(t *testing.T) {
	type fields struct {
		local, remotePort Port
		remote            Addr
	}
	var vals []fields
	for _, l := range []Port{0, 1, 80, 49152, 65535} {
		for _, r := range []Addr{0, 1, MustParseAddr("10.0.0.1"), MustParseAddr("255.255.255.255")} {
			for _, rp := range []Port{0, 7, 65535} {
				vals = append(vals, fields{l, rp, r})
			}
		}
	}
	for _, a := range vals {
		ka := makeConnKey(a.local, a.remote, a.remotePort)
		if ka.local() != a.local || ka.remote() != a.remote || ka.remotePort() != a.remotePort {
			t.Fatalf("key %+v unpacked as (%d, %v, %d)", a, ka.local(), ka.remote(), ka.remotePort())
		}
		for _, b := range vals {
			kb := makeConnKey(b.local, b.remote, b.remotePort)
			less := a.local < b.local ||
				a.local == b.local && (a.remote < b.remote || a.remote == b.remote && a.remotePort < b.remotePort)
			if (ka < kb) != less {
				t.Fatalf("keys %+v and %+v: integer order %v, field order %v", a, b, ka < kb, less)
			}
		}
	}
}
