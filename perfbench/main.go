// Command perfbench is the MicroGrid benchmark. It generates one of its
// scenario workloads from a seed, drives it through the public scenario
// path (scenario.ParseString, core.BuildScenarioEnv,
// MicroGrid.RunWorkload, core.FormatScenarioReport) for a fixed stretch
// of host time, checks every iteration's output, and prints one JSON
// result line:
//
//	perfbench --workload lan-packet --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from spans, counters and the layer ladder. See
// README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+usage())
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds of iterations to measure")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload <%s> --seed <n> --seconds <n≥1> --trace <0|1>\n", usage())
		os.Exit(2)
	}
	digests, err := parseDigests(digestsText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := &runner{w: w, seed: *seed, text: w.scenario(*seed)}
	if *seed == defaultSeed {
		r.want = digests[w.name]
	}
	if *traceFlag == 1 {
		r.tr = newTracer()
	}
	res, err := r.result(time.Duration(*seconds) * time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			os.Exit(1)
		}
		fmt.Printf("# spans: %s\n", path)
	}
	for _, err := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
	printResult(r, res)
}

// result measures the workload and assembles the metrics.
func (r *runner) result(budget time.Duration) (*result, error) {
	r.measure(budget)
	if len(r.samples) == 0 {
		return nil, fmt.Errorf("no iteration completed: %v", r.failures)
	}
	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	secs := func(f func(*sample) time.Duration) func(*sample) float64 {
		return func(s *sample) float64 { return f(s).Seconds() }
	}
	if r.tr == nil {
		put("wall_s", "s", median(r.pick(false, secs(func(s *sample) time.Duration { return s.wall }))))
		put("setup_s", "s", median(r.setups))
		put("run_s", "s", median(r.pick(false, secs(func(s *sample) time.Duration { return s.run }))))
		put("live_heap_mb", "MiB", median(r.pick(false, func(s *sample) float64 { return float64(s.liveHeap) / (1 << 20) })))
	} else if err := r.perLayer(put); err != nil {
		return nil, err
	}
	res.Attempted = r.attempts
	res.Failed = len(r.failures)
	res.Correct = res.Failed == 0
	return res, nil
}

// perLayer fills in the per-layer metrics of a traced run.
func (r *runner) perLayer(put func(name, unit string, v float64)) error {
	traced := func(f func(*sample) float64) float64 { return median(r.pick(true, f)) }
	var last *sample
	for _, s := range r.samples {
		if s.traced {
			last = s
		}
	}
	if last == nil {
		return fmt.Errorf("no traced iteration completed: %v", r.failures)
	}
	c := last.counts
	hosts := float64(c.declared)
	events := float64(c.events)
	self := r.tr.selfByName()
	build := median(self["core.build"])
	run := median(self["core.run"])

	put("scenario.parse_s", "s", median(self["scenario.parse"]))
	put("core.build_s", "s", build)
	put("core.build_ns_per_host", "ns", build*1e9/hosts)
	put("core.build_alloc_bytes_per_host", "B", median(r.buildAlloc))
	put("core.live_bytes_per_host", "B", median(r.liveAfterBuild))
	put("bench.check_s", "s", median(r.tr.durations("check")))
	put("virtual.hosts_declared", "count", hosts)
	put("virtual.hosts_materialized", "count", float64(c.materialized))
	put("netsim.route_state_bytes", "B", float64(c.routeBytes))

	put("simcore.events", "count", events)
	put("simcore.ns_per_event", "ns", run*1e9/events)

	part, err := rungPartition(r.seed)
	if err != nil {
		r.attempts++
		r.fail(fmt.Errorf("partition rung: %w", err))
	}
	put("simcore.windows", "count", float64(part.windows))
	put("simcore.events_per_window", "count", ratio(float64(part.events), float64(part.windows)))
	put("simcore.cross_events", "count", float64(part.cross))
	put("simcore.shard_imbalance", "ratio", part.imbalance)
	put("simcore.partition_speedup", "ratio", part.speedup)

	n := c.net
	put("netsim.packets", "count", float64(n.PacketsOriginated))
	put("netsim.bytes_delivered", "B", float64(n.BytesDelivered))
	put("netsim.delivered_ratio", "ratio", ratio(float64(n.PacketsDelivered), float64(n.PacketsOriginated)))
	put("netsim.events_per_packet", "ratio", ratio(events, float64(n.PacketsOriginated)))

	put("goruntime.allocs_per_event", "ratio", traced(func(s *sample) float64 { return float64(s.runMallocs) })/events)
	put("goruntime.alloc_mb", "MiB", traced(func(s *sample) float64 { return float64(s.runAlloc) / (1 << 20) }))
	put("goruntime.gc_cycles", "count", traced(func(s *sample) float64 { return float64(s.runGC) }))

	tracedWall := traced(func(s *sample) float64 { return s.wall.Seconds() })
	plainWall := median(r.pick(false, func(s *sample) float64 { return s.wall.Seconds() }))
	put("bench.trace_overhead", "ratio", tracedWall/plainWall-1)
	cov := r.tr.coverage()
	put("bench.span_coverage", "ratio", median(cov))
	for _, v := range cov {
		if v < 0.97 {
			r.attempts++
			r.fail(fmt.Errorf("phase self times cover %.4f of an iteration's wall time, want ≥ 0.97", v))
			break
		}
	}

	gen, err := generateSeconds(r.text)
	if err != nil {
		return fmt.Errorf("topology.generate rung: %w", err)
	}
	put("topology.generate_s", "s", gen)
	ladder, err := runLadder()
	if err != nil {
		return err
	}
	for name, v := range ladder {
		put(name, "ns", v)
	}
	put("bench.procs", "count", float64(runtime.NumCPU()))
	put("bench.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printResult prints the metrics one per line for a reader, then the
// JSON result as the last line of standard output.
func printResult(r *runner, res *result) {
	fmt.Printf("# workload=%s seed=%d go=%s procs=%d gomaxprocs=%d\n",
		r.w.name, r.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("# iterations=%d set-up samples=%d fail_ratio=%g (%d/%d) report sha256=%s\n",
		len(r.samples), len(r.setups), float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted,
		digest(r.first))
	fmt.Printf("# wall_s per iteration:")
	for _, s := range r.samples {
		fmt.Printf(" %.4f", s.wall.Seconds())
	}
	fmt.Printf("\n# setup_s per sample:")
	for _, v := range r.setups {
		fmt.Printf(" %.4g", v)
	}
	fmt.Println()
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
