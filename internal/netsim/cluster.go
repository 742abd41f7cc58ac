package netsim

import (
	"slices"
	"strings"

	"microgrid/internal/simcore"
)

// DefaultWANThreshold separates intra-cluster from wide-area links: a
// link with at least this much propagation delay is treated as a WAN hop
// when detecting clusters. One millisecond comfortably exceeds campus
// LANs (tens of microseconds) and sits at the floor of wide-area
// latencies (the paper's vBNS OC-3 hops are 1 ms, its cross-country
// backbone 28 ms).
const DefaultWANThreshold = simcore.Millisecond

// Clusters returns the nodes partitioned into connected components under
// links whose propagation delay is below DefaultWANThreshold — the
// "clusters" of the modeled grid: sites internally joined by fast links
// and joined to each other only over WAN links. Components list their
// nodes sorted by name and are ordered by each component's
// lexicographically smallest node name, so the result — and any shard
// assignment derived from it — depends only on the topology, not on
// construction order.
//
// This is the routing hierarchy's own decomposition, computed once per
// ComputeRoutes (and pinned until the next structural change); the
// returned slices are shared and must not be modified.
func (n *Network) Clusters() [][]*Node {
	if !n.routed {
		n.ComputeRoutes()
	}
	return n.hier.members
}

// ClusterOf returns the index into Clusters() of nd's cluster.
func (n *Network) ClusterOf(nd *Node) int {
	if !n.routed {
		n.ComputeRoutes()
	}
	return int(n.hier.clusterOf[nd.idx])
}

// decompose computes the cluster decomposition into h: union-find over
// the fast links, then one name sort of all nodes. Scanning the sorted
// nodes numbers each component at its smallest name, which is the
// representative-name order Clusters promises.
func (n *Network) decompose(h *hier) {
	size := int(n.nnodes)
	parent := make([]int32, size)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range n.links {
		if l.Config.Delay >= DefaultWANThreshold {
			continue
		}
		a, b := find(l.A.idx), find(l.B.idx)
		if a != b {
			parent[a] = b
		}
	}
	// Sort (name, node) pairs so the comparator never dereferences a node.
	type named struct {
		name string
		nd   *Node
	}
	// Creation order, not map order: the sort's input is then the same
	// every run, and generated names arrive largely in order.
	sorted := make([]named, 0, size)
	n.nodeSlab.each(func(nd *Node) { sorted = append(sorted, named{nd.Name, nd}) })
	slices.SortFunc(sorted, func(a, b named) int { return strings.Compare(a.name, b.name) })

	// First pass: number components in representative order (id maps a
	// root to its cluster) and give each node its slot in its cluster.
	id := make([]int32, size)
	for i := range id {
		id[i] = -1
	}
	var sizes []int32
	for _, s := range sorted {
		r := find(s.nd.idx)
		if id[r] < 0 {
			id[r] = int32(len(sizes))
			sizes = append(sizes, 0)
		}
		c := id[r]
		h.clusterOf[s.nd.idx] = c
		h.localIdx[s.nd.idx] = sizes[c]
		sizes[c]++
	}
	// Second pass: carve every member list out of one backing array.
	backing := make([]*Node, size)
	h.members = make([][]*Node, len(sizes))
	off := 0
	for c, sz := range sizes {
		h.members[c] = backing[off : off+int(sz) : off+int(sz)]
		off += int(sz)
	}
	for _, s := range sorted {
		h.members[h.clusterOf[s.nd.idx]][h.localIdx[s.nd.idx]] = s.nd
	}
}

// InterClusterMinDelay returns the smallest propagation delay over links
// joining different clusters of Clusters(); ok is false when no link
// crosses clusters. It is the natural conservative lookahead for a
// parallel engine running one cluster per shard: no packet crosses
// between clusters in less than this.
func (n *Network) InterClusterMinDelay() (d simcore.Duration, ok bool) {
	if !n.routed {
		n.ComputeRoutes()
	}
	clusterOf := n.hier.clusterOf
	for _, l := range n.links {
		if clusterOf[l.A.idx] == clusterOf[l.B.idx] {
			continue
		}
		if !ok || l.Config.Delay < d {
			d, ok = l.Config.Delay, true
		}
	}
	return d, ok
}
