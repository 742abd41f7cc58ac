// Command mgridrun runs a workload on a virtual grid defined entirely by
// GIS records — the MicroGrid's production workflow: describe the grid in
// LDIF, pick a configuration, pick an application.
//
// Usage:
//
//	mgridrun -gis grid.ldif -config Slow_CPU_Configuration -app EP -class S
//	mgridrun -gis grid.ldif -config MyGrid -app wavetoy -size 50 -steps 100
//	mgridrun -gis grid.ldif -config MyGrid -app EP -phys "m1=533,m2=533" -rate 0.5
//	mgridrun -scenario run.scenario
//
// Without -phys the target is modeled directly (the reference run); with
// -phys the named physical machines emulate the virtual grid at -rate.
// With -scenario, the whole run — grid, workload, policies, faults — comes
// from one declarative file and every other flag but -shards and
// -partition (which outrank the file's engine lines) is ignored.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"microgrid"
)

func main() {
	var (
		gisFile = flag.String("gis", "", "LDIF file defining the virtual grid")
		config  = flag.String("config", "", "Configuration_Name to instantiate")
		app     = flag.String("app", "EP", "workload: EP, BT, LU, MG, IS, or wavetoy")
		class   = flag.String("class", "S", "NPB class: S, W, A, B")
		size    = flag.Int("size", 50, "WaveToy grid edge")
		steps   = flag.Int("steps", 100, "WaveToy steps")
		physArg = flag.String("phys", "", "emulation calibration: name=MIPS,name=MIPS (empty = direct model)")
		rate    = flag.Float64("rate", 0, "simulation rate (0 = fastest feasible)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		scen    = flag.String("scenario", "", "declarative .scenario file (overrides all other flags but -shards and -partition)")
		shards  = flag.Int("shards", 0, "simulation engine: 0 = serial (default), N >= 1 = conservative parallel engine with N shards")
		partArg = flag.String("partition", "", "partition the grid model across shards: 'auto' or 'node=shard,...'")
	)
	flag.Parse()
	if *shards < 0 {
		fail(fmt.Errorf("-shards must be >= 0"))
	}
	var partition *microgrid.PartitionConfig
	if *partArg != "" {
		pc, err := microgrid.ParsePartitionFlag(*partArg)
		if err != nil {
			fail(err)
		}
		partition = pc
	}
	if *scen != "" {
		s, err := microgrid.LoadScenario(*scen)
		if err != nil {
			fail(err)
		}
		checkPartition(partition, *shards, s.EngineShards)
		report, err := microgrid.RunScenarioEnv(s, microgrid.ScenarioEnv{
			BaseDir:   filepath.Dir(*scen),
			Shards:    *shards,
			Partition: partition,
		})
		if err != nil {
			fail(err)
		}
		printReport(report)
		return
	}
	if *gisFile == "" || *config == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*gisFile)
	if err != nil {
		fail(err)
	}
	server, err := microgrid.LoadGIS(f)
	f.Close()
	if err != nil {
		fail(err)
	}

	checkPartition(partition, *shards, 0)
	opts := microgrid.GISBuildOptions{Seed: *seed, Rate: *rate, Shards: *shards, Partition: partition}
	if *physArg != "" {
		opts.PhysMIPS = map[string]float64{}
		for _, pair := range strings.Split(*physArg, ",") {
			name, mips, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fail(fmt.Errorf("bad -phys entry %q", pair))
			}
			v, err := strconv.ParseFloat(mips, 64)
			if err != nil {
				fail(fmt.Errorf("bad MIPS in %q", pair))
			}
			opts.PhysMIPS[name] = v
		}
	}

	m, err := microgrid.BuildFromGIS(server, *config, opts)
	if err != nil {
		fail(err)
	}
	mode := "direct (physical grid model)"
	if !m.IsDirect() {
		mode = fmt.Sprintf("emulated at rate %.3f", m.Rate())
	}
	fmt.Fprintf(os.Stderr, "grid %q: %d hosts, %s\n", m.ConfigName, len(m.Hosts), mode)

	var fn func(ctx *microgrid.AppContext) error
	switch strings.ToLower(*app) {
	case "wavetoy":
		fn = func(ctx *microgrid.AppContext) error {
			return microgrid.RunWaveToy(ctx, microgrid.WaveToyParams{GridEdge: *size, Steps: *steps})
		}
	default:
		bench := strings.ToUpper(*app)
		cls := microgrid.NPBClass((*class)[0])
		fn = func(ctx *microgrid.AppContext) error {
			return microgrid.RunNPB(ctx, bench, cls, nil)
		}
	}

	report, err := m.RunApp(*app, fn, microgrid.RunOptions{})
	if err != nil {
		fail(err)
	}
	printReport(report)
}

func printReport(report *microgrid.Report) {
	fmt.Printf("virtual time:    %.3f s\n", report.VirtualElapsed.Seconds())
	fmt.Printf("emulation time:  %.3f s\n", report.PhysicalElapsed.Seconds())
	fmt.Printf("network:         %d packets delivered, %d dropped\n",
		report.Net.PacketsDelivered, report.Net.PacketsDropped)
	hosts := make([]string, 0, len(report.HostUtilization))
	for h := range report.HostUtilization {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		fmt.Printf("utilization:     %-24s %.1f%%\n", h, 100*report.HostUtilization[h])
	}
}

// checkPartition refuses a -partition that no shard count backs: without
// -shards or the scenario's engine line the build is serial and the
// placement would be silently ignored.
func checkPartition(pc *microgrid.PartitionConfig, shards, scenarioShards int) {
	if pc != nil && shards == 0 && scenarioShards == 0 {
		fail(fmt.Errorf("-partition needs a shard count: pass -shards N (or run a scenario with an engine line)"))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
