package netsim

import (
	"microgrid/internal/simcore"
)

// Hierarchical routing. The flat model computed an all-pairs next-hop
// table — O(N²) memory and time — which caps grid size far below the
// 100k-host scenarios the topology generator can declare. Routing is now
// two-level, mirroring how the modeled grids are actually shaped (campus
// clusters joined by WAN links):
//
//   - Nodes are grouped into clusters: connected components under links
//     faster than DefaultWANThreshold (the same partition the PDES shard
//     planner uses).
//   - Each node lazily builds a local next-hop table over its own
//     cluster's subgraph — O(|cluster|) memory, built by the same
//     delay+hop-penalty Dijkstra with the same name tie-breaks as the
//     flat model, and only for nodes that actually originate or forward
//     traffic. Untouched hosts allocate no routing state at all.
//   - Inter-cluster destinations route toward a per-(srcCluster,
//     dstCluster) egress gateway chosen by Dijkstra over the summarized
//     cluster graph (one vertex per cluster, one edge per WAN link) —
//     O(C²) state shared by every node in the source cluster.
//
// For single-gateway clusters — every committed topology and the whole
// generator family — the hierarchical next hops reproduce the flat
// shortest paths exactly (TestHierarchicalRoutingMatchesFlat). Forwarding
// is loop-free in general: each cluster hop strictly decreases the
// summarized distance to the destination cluster, and intra-cluster legs
// follow shortest paths to a single gateway.
//
// Failure and degrade events no longer trigger an eager global
// recomputation: they bump routeEpoch, and stale tables rebuild lazily on
// the next lookup.

// hopPenalty is the small per-hop cost added to link delay so equal-delay
// paths prefer fewer hops (shared by local and summarized Dijkstra).
const hopPenalty = simcore.Microsecond

// borderEdge is one direction of a WAN link in the summarized cluster
// graph: crossing on out from the cluster owning out.src into cluster to.
type borderEdge struct {
	to  int32
	out *channel
}

// hier is the network's hierarchical routing state, rebuilt whenever the
// topology changes structurally (node or link added).
type hier struct {
	// clusterOf maps node idx → cluster id; localIdx maps node idx → the
	// node's position in its cluster's name-sorted member list.
	clusterOf []int32
	localIdx  []int32
	members   [][]*Node
	// borderOut[c] lists the WAN edges leaving cluster c, in link
	// creation order (the relaxation order the flat model used).
	borderOut [][]borderEdge
	// egress[c] is cluster c's lazily built decision row: egress[c][d]
	// is the channel every node in c forwards toward cluster d over (its
	// gateway is the channel's src), nil when d is unreachable or d == c.
	// egressEpoch[c] records the routeEpoch the row was built at.
	egress      [][]*channel
	egressEpoch []int64
}

// ComputeRoutes (re)builds the routing hierarchy: cluster detection (the
// one decomposition Clusters and ClusterOf report) plus the summarized
// border graph. Per-node tables and egress rows are built lazily on
// first lookup, so this is O(N log N), not O(N²). It must be called
// after structural topology changes and before traffic flows;
// transports call it lazily too.
func (n *Network) ComputeRoutes() {
	size := int(n.nnodes)
	h := &hier{
		clusterOf: make([]int32, size),
		localIdx:  make([]int32, size),
	}
	n.decompose(h)
	clusters := h.members
	h.borderOut = make([][]borderEdge, len(clusters))
	for _, l := range n.links {
		ca, cb := h.clusterOf[l.A.idx], h.clusterOf[l.B.idx]
		if ca == cb {
			continue
		}
		h.borderOut[ca] = append(h.borderOut[ca], borderEdge{to: cb, out: &l.ab})
		h.borderOut[cb] = append(h.borderOut[cb], borderEdge{to: ca, out: &l.ba})
	}
	h.egress = make([][]*channel, len(clusters))
	h.egressEpoch = make([]int64, len(clusters))
	n.hier = h
	n.routeEpoch++
	n.routed = true
}

// invalidateRoutes marks every lazily built table stale after a link
// state change (failure, restore, degrade). Unlike the flat model's
// eager global recomputation this is O(1); tables rebuild on demand.
func (n *Network) invalidateRoutes() {
	if !n.routed {
		return
	}
	n.routeEpoch++
}

// nextHop returns the channel node nd transmits on toward the node with
// compact index dstIdx, or nil if unreachable. The caller must ensure the
// network is routed.
func (n *Network) nextHop(nd *Node, dstIdx int32) *channel {
	h := n.hier
	c, d := h.clusterOf[nd.idx], h.clusterOf[dstIdx]
	if c == d {
		if nd.tabEpoch != n.routeEpoch || nd.localTab == nil {
			n.buildLocalTab(nd)
		}
		return nd.localTab[h.localIdx[dstIdx]]
	}
	out := n.egressTo(c, d)
	if out == nil || out.src == nd {
		return out
	}
	if nd.tabEpoch != n.routeEpoch || nd.localTab == nil {
		n.buildLocalTab(nd)
	}
	return nd.localTab[h.localIdx[out.src.idx]]
}

// buildLocalTab runs Dijkstra from nd over its cluster's subgraph — the
// same cost function and deterministic name tie-break as the flat model,
// restricted to intra-cluster links.
func (n *Network) buildLocalTab(nd *Node) {
	h := n.hier
	c := h.clusterOf[nd.idx]
	mem := h.members[c]
	size := len(mem)
	dist := make([]simcore.Duration, size)
	reached := make([]bool, size)
	visited := make([]bool, size)
	first := make([]*channel, size)
	reached[h.localIdx[nd.idx]] = true
	for {
		var u *Node
		var ui int32
		var best simcore.Duration
		for _, cand := range mem { // name-sorted: deterministic extraction
			ci := h.localIdx[cand.idx]
			if visited[ci] || !reached[ci] {
				continue
			}
			if dd := dist[ci]; u == nil || dd < best || (dd == best && cand.Name < u.Name) {
				u, ui, best = cand, ci, dd
			}
		}
		if u == nil {
			break
		}
		visited[ui] = true
		for _, ch := range u.out {
			if ch.down {
				continue
			}
			v := ch.dst
			if h.clusterOf[v.idx] != c {
				continue
			}
			vi := h.localIdx[v.idx]
			cost := best + ch.cfg.Delay + hopPenalty
			if !reached[vi] || cost < dist[vi] {
				dist[vi], reached[vi] = cost, true
				if u == nd {
					first[vi] = ch
				} else {
					first[vi] = first[ui]
				}
			}
		}
	}
	first[h.localIdx[nd.idx]] = nil // self is handled by the loopback path
	nd.localTab = first
	nd.tabEpoch = n.routeEpoch
}

// egressTo returns the channel cluster c leaves on toward cluster d (nil
// if unreachable), building the row lazily via Dijkstra over the
// summarized cluster graph.
func (n *Network) egressTo(c, d int32) *channel {
	h := n.hier
	if h.egress[c] == nil || h.egressEpoch[c] != n.routeEpoch {
		n.buildEgress(c)
	}
	return h.egress[c][d]
}

// buildEgress runs Dijkstra from cluster c over the summarized graph.
// Cluster ids ascend in representative-name order (see Clusters),
// so extraction by smallest id mirrors the flat model's name tie-break;
// border edges relax in link creation order, mirroring each node's
// channel order.
// Intra-cluster transit is costed at zero — exact for singleton transit
// clusters (backbone routers and cores), which is every committed and
// generated family.
func (n *Network) buildEgress(c int32) {
	h := n.hier
	nc := len(h.members)
	dist := make([]simcore.Duration, nc)
	reached := make([]bool, nc)
	visited := make([]bool, nc)
	first := make([]*channel, nc)
	reached[c] = true
	for {
		u := int32(-1)
		var best simcore.Duration
		for ci := 0; ci < nc; ci++ {
			if visited[ci] || !reached[ci] {
				continue
			}
			if dd := dist[ci]; u < 0 || dd < best {
				u, best = int32(ci), dd
			}
		}
		if u < 0 {
			break
		}
		visited[u] = true
		for _, be := range h.borderOut[u] {
			if be.out.down {
				continue
			}
			cost := best + be.out.cfg.Delay + hopPenalty
			if !reached[be.to] || cost < dist[be.to] {
				dist[be.to], reached[be.to] = cost, true
				if u == c {
					first[be.to] = be.out
				} else {
					first[be.to] = first[u]
				}
			}
		}
	}
	h.egress[c] = first // first[c] stays nil: c never relaxes to itself
	h.egressEpoch[c] = n.routeEpoch
}

// NextHopName reports the name of the node nd forwards to on its way to
// dst, or "" when dst is unreachable — exposed for routing equivalence
// tests and tooling.
func (n *Network) NextHopName(nd, dst *Node) string {
	if !n.routed {
		n.ComputeRoutes()
	}
	ch := n.nextHop(nd, dst.idx)
	if ch == nil {
		return ""
	}
	return ch.dst.Name
}

// RouteStateBytes estimates the memory held by materialized routing
// tables — local tables actually built plus egress rows — for scalability
// assertions. Untouched nodes contribute nothing.
func (n *Network) RouteStateBytes() int64 {
	var total int64
	for _, nd := range n.nodes {
		if nd.localTab != nil {
			total += int64(len(nd.localTab)) * 8
		}
	}
	if n.hier != nil {
		for _, row := range n.hier.egress {
			total += int64(len(row)) * 8
		}
	}
	return total
}
