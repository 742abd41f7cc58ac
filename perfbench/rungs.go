package main

import (
	"fmt"
	"time"

	"microgrid/internal/core"
	"microgrid/internal/cpusched"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// The ladder: one small fixed-size model per layer, driven through the
// layer's public functions and timed on the host. Each rung returns host
// nanoseconds per unit of its layer's work; ladderReps repetitions are
// reduced to their median.
const ladderReps = 5

type rung struct {
	name string
	run  func() (float64, error)
}

var ladder = []rung{
	{"simcore.event_ns", rungEvent},
	{"simcore.proc_switch_ns", rungProcSwitch},
	{"netsim.cbr_hop_ns", rungCBRHop},
	{"netsim.tcp_segment_ns", rungTCPSegment},
	{"mpi.pingpong_small_ns", func() (float64, error) { return rungPingPong(64) }},
	{"mpi.pingpong_large_ns", func() (float64, error) { return rungPingPong(64 << 10) }},
	{"cpusched.quantum_ns", rungQuantum},
}

// runLadder returns every rung's median, by metric name.
func runLadder() (map[string]float64, error) {
	out := map[string]float64{}
	for _, r := range ladder {
		v, err := medianOf(ladderReps, r.run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out[r.name] = v
	}
	return out, nil
}

func medianOf(reps int, f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func perUnit(d time.Duration, units int64) (float64, error) {
	if units <= 0 {
		return 0, fmt.Errorf("rung did no work")
	}
	return float64(d.Nanoseconds()) / float64(units), nil
}

// rungEvent: a chain of 2^20 one-microsecond Engine.After ticks.
func rungEvent() (float64, error) {
	const n = 1 << 20
	eng := simcore.NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			eng.After(simcore.Microsecond, tick)
		}
	}
	eng.After(simcore.Microsecond, tick)
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return perUnit(time.Since(t0), int64(count))
}

// rungProcSwitch: one process sleeping 2^17 times, each sleep a park and
// a resume.
func rungProcSwitch() (float64, error) {
	const n = 1 << 17
	eng := simcore.NewEngine(1)
	count := 0
	eng.Spawn("sleeper", func(p *simcore.Proc) {
		for count < n {
			p.Sleep(simcore.Microsecond)
			count++
		}
	})
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return perUnit(time.Since(t0), int64(count))
}

// lineHops is the link count of the CBR rung's host-router-...-host line.
const lineHops = 4

// rungCBRHop: 50 Mb/s of 1000-byte datagrams for 4 virtual seconds over
// a line of four 100 Mb/s links; host ns per delivered packet-hop.
func rungCBRHop() (float64, error) {
	eng := simcore.NewEngine(1)
	nw := netsim.New(eng)
	src := nw.AddHost("src", netsim.MustParseAddr("10.0.0.1"))
	prev := src
	for i := 1; i < lineHops; i++ {
		r := nw.AddRouter(fmt.Sprintf("r%d", i))
		nw.Connect(prev, r, netsim.LinkConfig{BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond})
		prev = r
	}
	dst := nw.AddHost("dst", netsim.MustParseAddr("10.0.0.2"))
	nw.Connect(prev, dst, netsim.LinkConfig{BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond})
	nw.ComputeRoutes()
	got, _ := netsim.CountingSink(dst, 9)
	gen, err := netsim.StartCBR(src, dst, 9, 50e6, 1000)
	if err != nil {
		return 0, err
	}
	eng.After(4*simcore.Second, gen.Stop)
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if *got != gen.Sent {
		return 0, fmt.Errorf("delivered %d of %d datagrams", *got, gen.Sent)
	}
	return perUnit(d, *got*lineHops)
}

// rungTCPSegment: a 16 MiB bulk transfer in 64 KiB messages between two
// hosts on a switched 100 Mb/s LAN; host ns per data segment sent.
func rungTCPSegment() (float64, error) {
	const msgs, size = 256, 64 << 10
	eng := simcore.NewEngine(1)
	nw := netsim.New(eng)
	a := nw.AddHost("a", netsim.MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", netsim.MustParseAddr("10.0.0.2"))
	sw := nw.AddRouter("sw")
	lan := netsim.LinkConfig{BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond}
	nw.Connect(a, sw, lan)
	nw.Connect(sw, b, lan)
	nw.ComputeRoutes()
	ln, err := b.Listen(80)
	if err != nil {
		return 0, err
	}
	var sender *netsim.Conn
	var received int64
	var runErr error
	eng.Spawn("receiver", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			runErr = err
			return
		}
		for received < msgs {
			if _, err := c.Recv(p); err != nil {
				runErr = err
				return
			}
			received++
		}
		c.Close()
	})
	eng.Spawn("sender", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			runErr = err
			return
		}
		sender = c
		for i := 0; i < msgs; i++ {
			if err := c.Send(p, size, nil); err != nil {
				runErr = err
				return
			}
		}
		c.Close()
	})
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if runErr != nil {
		return 0, runErr
	}
	if received != msgs {
		return 0, fmt.Errorf("received %d of %d messages", received, msgs)
	}
	return perUnit(d, sender.Stats.SegmentsSent)
}

// pingPongMessages is how many messages the pingpong workload exchanges
// (10 round trips).
const pingPongMessages = 20

// rungPingPong: the pingpong scenario workload on a 2-host Alpha LAN;
// host ns of RunWorkload per message, job start-up included.
func rungPingPong(bytes int) (float64, error) {
	_, d, _, err := runScenario(fmt.Sprintf(`scenario rung-pingpong
seed 1
target procs=2 %s
workload pingpong bytes=%d
`, alphaMachine, bytes))
	if err != nil {
		return 0, err
	}
	return perUnit(d, pingPongMessages)
}

// rungQuantum: a fraction controller granting a busy job half of a
// 533 MIPS host against a CPU competitor for 60 virtual seconds; host ns
// per enforced quantum.
func rungQuantum() (float64, error) {
	eng := simcore.NewEngine(1)
	h := cpusched.NewHost(eng, "h", 533, 0)
	cpusched.StartCPUCompetitor(h, "hog")
	job := h.NewTask("job")
	fc := cpusched.NewFractionController(h, job, 0.5)
	var quanta int64
	fc.OnQuantum = func(simcore.Time, simcore.Duration) { quanta++ }
	fc.Spawn()
	jp := eng.Spawn("job", func(p *simcore.Proc) {
		for {
			job.ComputeSeconds(p, 1)
		}
	})
	jp.SetDaemon(true)
	eng.Spawn("end", func(p *simcore.Proc) {
		p.Sleep(60 * simcore.Second)
		eng.Stop()
	})
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return perUnit(time.Since(t0), quanta)
}

// generateSeconds times topology.Generate on the workload's generator
// spec; 0 when the workload declares no generated topology.
func generateSeconds(text string) (float64, error) {
	s, err := scenario.ParseString(text)
	if err != nil {
		return 0, err
	}
	if s.TopoGen == nil {
		return 0, nil
	}
	return medianOf(3, func() (float64, error) {
		t0 := time.Now()
		if _, err := topology.Generate(*s.TopoGen); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	})
}

// partitionStats are the parallel engine's counters and speed-up on the
// partition rung.
type partitionStats struct {
	windows, cross, events int64
	// imbalance is the busiest shard's dispatched events over the mean.
	imbalance float64
	// speedup is the serial run's host time over the sharded run's.
	speedup float64
}

// rungPartition runs partitionScenario on the serial engine and on 2
// shards, ladderReps times each, alternating. Every sharded report must
// equal the serial one byte for byte: the determinism contract.
func rungPartition(seed int64) (partitionStats, error) {
	var st partitionStats
	var serial, sharded []float64
	for i := 0; i < ladderReps; i++ {
		want, d, _, err := runScenario(partitionScenario(seed, false))
		if err != nil {
			return st, fmt.Errorf("serial: %w", err)
		}
		serial = append(serial, d.Seconds())
		got, d, m, err := runScenario(partitionScenario(seed, true))
		if err != nil {
			return st, fmt.Errorf("sharded: %w", err)
		}
		sharded = append(sharded, d.Seconds())
		if got != want {
			return st, fmt.Errorf("sharded report differs from the serial report")
		}
		pe := m.ParallelEngine()
		if pe == nil {
			return st, fmt.Errorf("sharded scenario ran on the serial engine")
		}
		var largest int64
		st.events = 0
		for j := 0; j < pe.NumShards(); j++ {
			n := pe.Shard(j).Dispatched()
			st.events += n
			largest = max(largest, n)
		}
		st.windows, st.cross = pe.Windows(), pe.CrossEvents()
		st.imbalance = float64(largest) / (float64(st.events) / float64(pe.NumShards()))
	}
	st.speedup = median(serial) / median(sharded)
	return st, nil
}

// runScenario parses, builds and runs a scenario, returning its report
// and the host time of the run.
func runScenario(text string) (string, time.Duration, *core.MicroGrid, error) {
	s, err := scenario.ParseString(text)
	if err != nil {
		return "", 0, nil, err
	}
	m, err := core.BuildScenarioEnv(s, core.ScenarioEnv{})
	if err != nil {
		return "", 0, nil, err
	}
	t0 := time.Now()
	rep, err := m.RunWorkload(s)
	d := time.Since(t0)
	if err != nil {
		return "", 0, nil, err
	}
	return core.FormatScenarioReport(s.Name, rep), d, m, nil
}
