// Command mgridrun runs one declarative scenario file — grid, workload,
// policies, faults — and prints the run's report. A grid defined by GIS
// records, the MicroGrid's production workflow, is a scenario with a gis
// line:
//
//	scenario ep-on-gis
//	seed 1
//	gis file="grid.ldif" config="MyGrid" phys=m1:533,m2:533
//	rate 0.5
//	workload npb bench=EP class=S
//
// Usage:
//
//	mgridrun -scenario run.scenario [-shards N] [-partition auto|node=shard,...]
//
// Without phys= the target is modeled directly (the reference run); with
// it the named physical machines emulate the virtual grid at the
// scenario's rate. -shards and -partition outrank the file's engine and
// partition lines.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"microgrid"
)

func main() {
	var (
		scen    = flag.String("scenario", "", "declarative .scenario file to run")
		shards  = flag.Int("shards", 0, "simulation engine: 0 = serial (default), N >= 1 = conservative parallel engine with N shards")
		partArg = flag.String("partition", "", "partition the grid model across shards: 'auto' or 'node=shard,...'")
	)
	flag.Parse()
	if *scen == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
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
