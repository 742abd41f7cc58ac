package netsim_test

import (
	"fmt"
	"sort"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/scengen"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// referenceClusters is the stand-alone decomposition Clusters computed
// before it read the routing hierarchy: union-find over links faster
// than DefaultWANThreshold, grouping of the name-sorted nodes, groups
// ordered by their smallest name.
func referenceClusters(nw *netsim.Network) [][]*netsim.Node {
	nodes := nw.Nodes()
	idx := make(map[*netsim.Node]int, len(nodes))
	parent := make([]int, len(nodes))
	for i, nd := range nodes {
		idx[nd] = i
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range nw.Links() {
		if l.Config.Delay >= netsim.DefaultWANThreshold {
			continue
		}
		if a, b := find(idx[l.A]), find(idx[l.B]); a != b {
			parent[a] = b
		}
	}
	groups := map[int][]*netsim.Node{}
	for i, nd := range nodes {
		groups[find(i)] = append(groups[find(i)], nd)
	}
	out := make([][]*netsim.Node, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Name < out[j][0].Name })
	return out
}

// referenceInterClusterMinDelay is the pointer-keyed lookahead scan
// InterClusterMinDelay replaced.
func referenceInterClusterMinDelay(nw *netsim.Network, clusters [][]*netsim.Node) (d simcore.Duration, ok bool) {
	comp := map[*netsim.Node]int{}
	for i, c := range clusters {
		for _, nd := range c {
			comp[nd] = i
		}
	}
	for _, l := range nw.Links() {
		if comp[l.A] != comp[l.B] && (!ok || l.Config.Delay < d) {
			d, ok = l.Config.Delay, true
		}
	}
	return d, ok
}

// clusterCorpus is every topology the decomposition property runs on:
// the committed corpus, the vBNS testbed (whose 1 ms access circuits sit
// exactly at DefaultWANThreshold), fifty scengen scenarios, and fifty
// seeds of each topology.Generate family.
func clusterCorpus(t *testing.T) map[string]*topology.Spec {
	t.Helper()
	out := committedTopologies(t)
	vbns, err := topology.VBNSSpec(topology.VBNSConfig{HostsPerSite: 2})
	if err != nil {
		t.Fatal(err)
	}
	out["vbns"] = vbns
	for seed := int64(0); seed < 50; seed++ {
		s, _ := scengen.Generate(seed, scengen.Options{Quick: true})
		out[fmt.Sprintf("scengen-%d", seed)] = s.Topology
		for _, kind := range []string{topology.GenStar, topology.GenFatTree} {
			spec, err := topology.Generate(topology.GenSpec{Kind: kind, Hosts: 20 + int(seed)*13, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s-%d", kind, seed)] = spec
		}
	}
	return out
}

// TestClustersMatchReference: the cached decomposition the router
// computes is the one the stand-alone reference computes, node for node
// and in order; ClusterOf indexes it; the lookahead scan agrees; and
// repeated calls share one decomposition instead of recomputing it.
func TestClustersMatchReference(t *testing.T) {
	for label, spec := range clusterCorpus(t) {
		nw, err := spec.Build(simcore.NewEngine(1))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := referenceClusters(nw)
		got := nw.Clusters()
		if len(got) != len(want) {
			t.Fatalf("%s: %d clusters, reference has %d", label, len(got), len(want))
		}
		for ci := range want {
			if len(got[ci]) != len(want[ci]) {
				t.Fatalf("%s: cluster %d has %d nodes, reference %d", label, ci, len(got[ci]), len(want[ci]))
			}
			for j, nd := range want[ci] {
				if got[ci][j] != nd {
					t.Fatalf("%s: cluster %d member %d is %s, reference %s", label, ci, j, got[ci][j].Name, nd.Name)
				}
				if c := nw.ClusterOf(nd); c != ci {
					t.Fatalf("%s: ClusterOf(%s) = %d, reference %d", label, nd.Name, c, ci)
				}
			}
		}
		gd, gok := nw.InterClusterMinDelay()
		wd, wok := referenceInterClusterMinDelay(nw, want)
		if gd != wd || gok != wok {
			t.Fatalf("%s: InterClusterMinDelay = %v,%v, reference %v,%v", label, gd, gok, wd, wok)
		}
		if again := nw.Clusters(); &again[0] != &got[0] {
			t.Fatalf("%s: Clusters recomputed the decomposition", label)
		}
	}
}
