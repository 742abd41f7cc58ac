package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"microgrid/internal/core"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
)

// runner measures one workload's scenario at one seed.
type runner struct {
	w    workload
	seed int64
	text string
	// want is the committed report digest ("" when the seed has none).
	want string
	// tr is non-nil in a traced run.
	tr *tracer
	// first is the first iteration's report: every later iteration must
	// reproduce it byte for byte.
	first string

	samples  []*sample
	setups   []float64 // seconds of parse+build per set-up sample
	attempts int
	failures []error
	// Set-up batches of a traced run, per declared host: bytes allocated
	// by parse and build, and heap a built grid keeps live.
	buildAlloc, liveAfterBuild []float64
}

// sample is one iteration's host-time measurements.
type sample struct {
	traced       bool
	wall, run    time.Duration
	parse, build time.Duration
	liveHeap     int64  // bytes the iteration keeps live: grid and report
	runMallocs   uint64 // traced: heap objects allocated by the run
	runAlloc     uint64 // traced: bytes allocated by the run
	runGC        uint64 // traced: GC cycles during the run
	counts       counts
}

// counts are the layers' public counters after one run.
type counts struct {
	declared, materialized int
	events                 int64
	net                    netsim.NetStats
	routeBytes             int64
}

// memCounters are the Go runtime's cumulative allocation and GC
// counters. Unlike runtime.ReadMemStats, reading them does not stop the
// world, whose wait for the other CPU would open gaps of milliseconds
// between a traced iteration's phases on a busy host. They lag by the
// allocations still cached per P, which is negligible across a run.
type memCounters struct {
	allocBytes, allocObjects, gcCycles uint64
}

func readMem() memCounters {
	s := [...]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s[:])
	return memCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64() + s[2].Value.Uint64(),
		gcCycles:     s[3].Value.Uint64(),
	}
}

func (r *runner) fail(err error) {
	r.failures = append(r.failures, err)
}

// iterate runs the scenario once through the public scenario path —
// parse, build, run, report — and checks the output. The sample is nil
// when the iteration produced no report; the error is set when it
// failed in any way, including the output check.
func (r *runner) iterate(iter int, traced bool) (*sample, error) {
	var tr *tracer
	if traced {
		tr = r.tr
	}
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	var built, ran memCounters
	t0 := time.Now()
	s, err := scenario.ParseString(r.text)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	t2 := time.Now()
	m, err := core.BuildScenarioEnv(s, core.ScenarioEnv{})
	t3 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if traced {
		built = readMem()
	}
	t4 := time.Now()
	rep, err := m.RunWorkload(s)
	t5 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if traced {
		ran = readMem()
	}
	t6 := time.Now()
	report := core.FormatScenarioReport(s.Name, rep)
	t7 := time.Now()
	nw := m.Grid.Network()
	cerr := checkConservation(nw)
	t8 := time.Now()
	d := digest(report)
	if cerr == nil {
		cerr = checkDigest(d, r.want)
	}
	if r.first == "" {
		r.first = report
	} else if cerr == nil && report != r.first {
		cerr = fmt.Errorf("report differs from the first iteration's")
	}
	t9 := time.Now()

	root := tr.add("iteration", -1, iter, t0, t9)
	tr.add("scenario.parse", root, iter, t0, t1)
	tr.add("core.build", root, iter, t2, t3)
	tr.add("core.run", root, iter, t4, t5)
	check := tr.add("check", root, iter, t6, t9)
	tr.add("core.report", check, iter, t6, t7)
	tr.add("oracle.conservation", check, iter, t7, t8)
	tr.add("digest", check, iter, t8, t9)

	smp := &sample{
		traced: traced,
		wall:   t9.Sub(t0),
		parse:  t1.Sub(t0),
		build:  t3.Sub(t2),
		run:    t5.Sub(t4),
		counts: counts{
			declared:     m.Grid.DeclaredHosts(),
			materialized: m.Grid.MaterializedCount(),
			events:       m.Eng.Dispatched(),
			net:          rep.Net,
			routeBytes:   nw.RouteStateBytes(),
		},
	}
	if traced {
		smp.runMallocs = ran.allocObjects - built.allocObjects
		smp.runAlloc = ran.allocBytes - built.allocBytes
		smp.runGC = ran.gcCycles - built.gcCycles
	}
	// The grid's footprint: the heap still live once the run returns,
	// with the grid reachable, over the heap live before the iteration.
	// Both collections are outside every span.
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	smp.liveHeap = int64(after.HeapAlloc) - int64(base.HeapAlloc)
	runtime.KeepAlive(m)
	return smp, cerr
}

// setupBatch parses and builds the scenario k times back to back and
// returns the mean set-up time. The unrun grids are then shut down,
// outside the timing. In a traced run it also returns, per declared
// host, the bytes parse and build allocate and the heap a built grid
// keeps live.
func (r *runner) setupBatch(k int, traced bool) (mean time.Duration, alloc, live float64, err error) {
	var base, done, built runtime.MemStats
	runtime.GC()
	if traced {
		runtime.ReadMemStats(&base)
	}
	grids := make([]*core.MicroGrid, 0, k)
	defer func() {
		for _, m := range grids {
			if serr := shutdown(m); serr != nil && err == nil {
				err = fmt.Errorf("shut down unrun grid: %w", serr)
			}
		}
	}()
	t0 := time.Now()
	for i := 0; i < k; i++ {
		s, err := scenario.ParseString(r.text)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("parse: %w", err)
		}
		m, err := core.BuildScenarioEnv(s, core.ScenarioEnv{})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("build: %w", err)
		}
		grids = append(grids, m)
	}
	mean = time.Since(t0) / time.Duration(k)
	if traced {
		hosts := float64(k * grids[0].Grid.DeclaredHosts())
		runtime.ReadMemStats(&done)
		runtime.GC()
		runtime.ReadMemStats(&built)
		alloc = float64(done.TotalAlloc-base.TotalAlloc) / hosts
		live = float64(int64(built.HeapAlloc)-int64(base.HeapAlloc)) / hosts
	}
	return mean, alloc, live, nil
}

// shutdown stops an unrun grid's engine, which aborts its parked
// processes so their goroutines exit.
func shutdown(m *core.MicroGrid) error {
	if pe := m.ParallelEngine(); pe != nil {
		pe.Stop()
		return pe.Run()
	}
	m.Eng.Stop()
	return m.Eng.Run()
}

// Set-up sampling. The run-bound workloads build in under a
// millisecond, where one build per sample reads mostly timer and
// scheduler noise, so builds faster than batchTarget are timed in warm
// batches of back-to-back builds. Batches follow each iteration, so
// set-up samples span the same stretch of machine time as the
// iterations; a run aims for minSetups samples.
const (
	minSetups      = 21
	batchesPerIter = 3
	batchTarget    = 20 * time.Millisecond
	maxBatch       = 64
)

// measure runs iterations until the next one would overrun budget, with
// set-up-only batches after each, then tops the set-up samples up to
// minSetups within a tenth of budget. A traced run alternates untraced
// and traced iterations, so both medians come from the same stretch of
// machine time.
func (r *runner) measure(budget time.Duration) {
	minIters := 1
	if r.tr != nil {
		minIters = 2
	}
	k := 0 // set-up batch size, fixed by the first iteration
	batch := func() error {
		mean, alloc, live, err := r.setupBatch(k, r.tr != nil)
		if err != nil {
			r.attempts++
			r.fail(fmt.Errorf("set-up batch: %w", err))
			return err
		}
		r.setups = append(r.setups, mean.Seconds())
		if r.tr != nil {
			r.buildAlloc = append(r.buildAlloc, alloc)
			r.liveAfterBuild = append(r.liveAfterBuild, live)
		}
		return nil
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i < minIters || time.Since(start)+last <= budget; i++ {
		it0 := time.Now()
		smp, err := r.iterate(i, r.tr != nil && i%2 == 1)
		last = time.Since(it0)
		r.attempts++
		if err != nil {
			r.fail(fmt.Errorf("iteration %d: %w", i, err))
		}
		if smp == nil {
			continue
		}
		r.samples = append(r.samples, smp)
		setup := smp.parse + smp.build
		if k == 0 {
			k = min(int(batchTarget/setup)+1, maxBatch)
		}
		if k == 1 {
			// A slow build is timed one at a time: the iteration's own
			// set-up is a sample of the same kind.
			r.setups = append(r.setups, setup.Seconds())
			continue
		}
		for b := 0; b < batchesPerIter; b++ {
			if batch() != nil {
				return
			}
		}
	}
	if k == 0 {
		return
	}
	extra := time.Now()
	for (r.tr != nil && len(r.liveAfterBuild) == 0) ||
		(len(r.setups) < minSetups && time.Since(extra) < budget/10) {
		if batch() != nil {
			return
		}
	}
}

// pick returns f applied to every sample of the given tracedness.
func (r *runner) pick(traced bool, f func(*sample) float64) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.traced == traced {
			out = append(out, f(s))
		}
	}
	return out
}
