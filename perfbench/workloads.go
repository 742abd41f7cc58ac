package main

import (
	"fmt"
	"sort"
	"strings"
)

// alphaMachine is the paper's Alpha cluster (4× 533 MHz DEC 21164 on
// 100 Mb Ethernet) in scenario syntax, minus the processor count.
const alphaMachine = `cpu=533 mem=1GBytes net=100Mbps delay=25µs name="Alpha Cluster" proctype="DEC21164, 533 MHz" nettype="100Mb Ethernet" compiler="GNU Fortran"`

// workload is one benchmark input family: a scenario text generated
// from the seed. The program under test receives only that text.
type workload struct {
	name string
	// scenario renders the workload's scenario for a seed.
	scenario func(seed int64) string
}

var workloads = map[string]workload{
	// NPB BT class A, direct mode, 4 ranks on the packet-level Alpha LAN
	// (fig10's physical arm): simcore's event heap and netsim's per-hop
	// and per-segment path, no fraction controllers, negligible build.
	"lan-packet": {name: "lan-packet", scenario: func(seed int64) string {
		return fmt.Sprintf(`scenario bench-lan-packet
describe NPB BT class A in direct mode on the 4-host packet-level Alpha LAN
seed %d
target procs=4 %s
workload npb bench=BT class=A
`, seed, alphaMachine)
	}},
	// The examples/scale-100k scenario: 100,000 declared hosts, 8
	// materialized. Almost all host time is set-up.
	"build-100k": {name: "build-100k", scenario: func(seed int64) string {
		return fmt.Sprintf(`scenario scale100k
describe NPB MG class S on an 8-rank working set of a 100000-host generated star grid
seed %d
target procs=8 cpu=500
topology generate kind=star hosts=100000 seed=%d wan-fidelity=flow
workload npb bench=MG class=S ranks=8
`, seed, seed)
	}},
}

// partitionScenario is the parallel engine's rung: NPB MG class W on 8
// ranks, one per campus of a generated star, so every message crosses a
// 2-20 ms packet-level WAN; sharded, it runs on 2 shards with automatic
// cluster placement. The star has 32 one-host campuses, not 8: the
// engine's lookahead is the smallest cross-shard WAN delay, which over 8
// campuses ranged from 2 to 10 ms by seed (14k-64k windows for class B)
// and over 32 is 2 ms at nearly every seed. The idle campuses add no
// events.
func partitionScenario(seed int64, sharded bool) string {
	engine := ""
	if sharded {
		engine = "engine parallel shards=2\npartition auto\n"
	}
	return fmt.Sprintf(`scenario rung-partition
describe NPB MG class W on 8 ranks across a generated 32-campus star WAN
seed %d
target procs=8 %s
%stopology generate kind=star hosts=32 clusters=32 seed=%d
workload npb bench=MG class=W ranks=8
`, seed, alphaMachine, engine, seed)
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// usage lists the accepted workload names for error messages.
func usage() string { return strings.Join(workloadNames(), ", ") }
