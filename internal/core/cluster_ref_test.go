package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/scengen"
	"microgrid/internal/simcore"
)

// The build reads one cluster decomposition — the router's — through
// netsim's Clusters/ClusterOf. The references below are the name-keyed
// code planPartition and wireGISHome ran before, each over its own
// union-find decomposition, so the tests pin that reading the shared
// decomposition changed no placement, lookahead or GIS latency.

// referenceClusterOf decomposes nw on its own (union-find over links
// faster than DefaultWANThreshold, groups ordered by smallest name) and
// keys the result by node name.
func referenceClusterOf(nw *netsim.Network) (clusterOf map[string]int, clusters int) {
	nodes := nw.Nodes()
	parent := map[string]string{}
	for _, nd := range nodes {
		parent[nd.Name] = nd.Name
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, l := range nw.Links() {
		if l.Config.Delay < netsim.DefaultWANThreshold {
			parent[find(l.A.Name)] = find(l.B.Name)
		}
	}
	groups := map[string][]string{}
	for _, nd := range nodes {
		r := find(nd.Name)
		groups[r] = append(groups[r], nd.Name)
	}
	ordered := make([][]string, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i][0] < ordered[j][0] })
	clusterOf = make(map[string]int, len(nodes))
	for ci, g := range ordered {
		for _, name := range g {
			clusterOf[name] = ci
		}
	}
	return clusterOf, len(ordered)
}

// referenceInterClusterMinDelay is the name-keyed lookahead scan.
func referenceInterClusterMinDelay(nw *netsim.Network, clusterOf map[string]int) (d simcore.Duration, ok bool) {
	for _, l := range nw.Links() {
		if clusterOf[l.A.Name] != clusterOf[l.B.Name] && (!ok || l.Config.Delay < d) {
			d, ok = l.Config.Delay, true
		}
	}
	return d, ok
}

// referencePlan is planPartition as it was: a name-keyed cluster map
// built from its own decomposition.
func referencePlan(nw *netsim.Network, nshards int, pc *PartitionConfig) (*partitionPlan, error) {
	clusterOf, nclusters := referenceClusterOf(nw)
	if nclusters < 2 {
		return nil, nil
	}
	shard := make([]int, nclusters)
	for i := range shard {
		shard[i] = i % nshards
	}
	names := make([]string, 0, len(pc.Assign))
	for name := range pc.Assign {
		names = append(names, name)
	}
	sort.Strings(names)
	pinned := map[int]string{}
	for _, name := range names {
		s := pc.Assign[name]
		ci, ok := clusterOf[name]
		if !ok {
			return nil, fmt.Errorf("core: partition names unknown node %q", name)
		}
		if s < 0 || s >= nshards {
			return nil, fmt.Errorf("core: partition places %q on shard %d, have %d shards", name, s, nshards)
		}
		if prev, ok := pinned[ci]; ok && shard[ci] != s {
			return nil, fmt.Errorf("core: partition splits one cluster: %q wants shard %d, %q wants shard %d",
				name, s, prev, shard[ci])
		}
		shard[ci] = s
		pinned[ci] = name
	}
	la, ok := referenceInterClusterMinDelay(nw, clusterOf)
	if !ok {
		la, _ = nw.MinLinkDelay()
	}
	plan := &partitionPlan{shardOf: map[string]int{}, clusters: nclusters, lookahead: la}
	for name, ci := range clusterOf {
		plan.shardOf[name] = shard[ci]
	}
	return plan, nil
}

// clusterScenarios is the corpus: every committed scenario, fifty
// scengen scenarios, and fifty seeds of each topology.Generate family.
func clusterScenarios(t *testing.T) map[string]*scenario.Scenario {
	t.Helper()
	out := map[string]*scenario.Scenario{}
	for _, pattern := range []string{"../../examples/*/*.scenario", "../scenario/testdata/generated/*.scenario"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(path)] = parseScenario(t, string(data))
		}
	}
	if len(out) == 0 {
		t.Fatal("no committed scenarios found")
	}
	for seed := 0; seed < 50; seed++ {
		s, _ := scengen.Generate(int64(seed), scengen.Options{Quick: true})
		out[fmt.Sprintf("scengen-%d", seed)] = s
		for _, kind := range []string{"star", "fat-tree"} {
			out[fmt.Sprintf("%s-%d", kind, seed)] = parseScenario(t, fmt.Sprintf(
				"scenario gen\nseed %d\ntarget procs=2 cpu=500\n"+
					"topology generate kind=%s hosts=%d seed=%d\n"+
					"workload workqueue units=4 ops=1e3 ranks=2\n",
				seed, kind, 20+13*seed, seed))
		}
	}
	return out
}

// TestClusterReadersMatchReference: on every corpus grid, planPartition
// (automatic at two and three shards, the scenario's own placement, and
// an unknown-node pin) gives the reference's node→shard map, cluster
// count, lookahead and error; wireGISHome gives the reference's GIS
// cluster and delay; and gisDo's same-cluster test agrees with the
// name-keyed one for every host.
func TestClusterReadersMatchReference(t *testing.T) {
	for label, s := range clusterScenarios(t) {
		m, err := BuildScenarioEnv(s, ScenarioEnv{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		nw := m.Grid.Network()

		pcs := map[string]*PartitionConfig{
			"auto":    {Auto: true},
			"unknown": {Assign: map[string]int{"no-such-node": 0}},
		}
		if pc := partitionConfig(s.Partition); pc != nil && s.EngineShards > 0 {
			pcs["scenario"] = pc
		}
		for name, pc := range pcs {
			for _, shards := range []int{2, 3, s.EngineShards} {
				if shards < 1 {
					continue
				}
				got, gerr := planPartition(nw, shards, pc)
				want, werr := referencePlan(nw, shards, pc)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s/%s/%d shards: err %v, reference %v", label, name, shards, gerr, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s/%d shards: plan %+v, reference %+v", label, name, shards, got, want)
				}
			}
		}

		clusterOf, nclusters := referenceClusterOf(nw)
		if nclusters < 2 {
			if m.gisRemote {
				t.Fatalf("%s: single-cluster grid routes GIS updates as remote", label)
			}
			continue
		}
		wantCluster := clusterOf[m.Hosts[0]]
		wantDelay, ok := referenceInterClusterMinDelay(nw, clusterOf)
		if !ok {
			wantDelay, _ = nw.MinLinkDelay()
		}
		if !m.gisRemote || m.gisCluster != wantCluster || m.gisDelay != wantDelay {
			t.Fatalf("%s: gis remote=%v cluster=%d delay=%v, reference cluster=%d delay=%v",
				label, m.gisRemote, m.gisCluster, m.gisDelay, wantCluster, wantDelay)
		}
		for _, name := range m.Hosts {
			local := nw.ClusterOf(nw.Node(name)) == m.gisCluster
			if want := clusterOf[name] == wantCluster; local != want {
				t.Fatalf("%s: host %s GIS-local=%v, reference %v", label, name, local, want)
			}
		}
	}
}
