package netsim_test

import (
	"fmt"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// starBuilder grows a star of switched clusters around one core router,
// remembering every pointer AddHost, AddRouter and Connect return.
type starBuilder struct {
	nw       *netsim.Network
	core     *netsim.Node
	nodes    []*netsim.Node
	links    []*netsim.Link
	clusters int
}

func (s *starBuilder) cluster(hosts int) {
	c := s.clusters
	s.clusters++
	sw := s.nw.AddRouter(fmt.Sprintf("sw%d", c))
	s.nodes = append(s.nodes, sw)
	s.links = append(s.links, s.nw.Connect(sw, s.core,
		netsim.LinkConfig{BandwidthBps: 622e6, Delay: 2 * simcore.Millisecond}))
	for j := 0; j < hosts; j++ {
		h := s.nw.AddHost(fmt.Sprintf("h%d-%d", c, j), netsim.MakeAddr(10, byte(c), byte(j>>8), byte(j)+1))
		s.nodes = append(s.nodes, h)
		s.links = append(s.links, s.nw.Connect(h, sw,
			netsim.LinkConfig{BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond}))
	}
}

// TestSlabPointersStable grows a star across many storage chunks —
// unhinted doubling chunks, one exactly sized chunk from Grow, then
// unhinted growth again — and checks that every pointer handed out
// during construction is still the one the network resolves and routes
// through afterwards.
func TestSlabPointersStable(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw := netsim.New(eng)
	s := &starBuilder{nw: nw, core: nw.AddRouter("core")}
	s.nodes = append(s.nodes, s.core)
	for c := 0; c < 6; c++ {
		s.cluster(150)
	}
	nw.Grow(1+200, 1+200)
	s.cluster(200)
	for c := 0; c < 3; c++ {
		s.cluster(120)
	}
	if nodes, links := netsim.Reserved(nw); nodes < 4*256 || links < 4*256 {
		t.Fatalf("built into %d node and %d link slots; want several chunks' worth", nodes, links)
	}

	for _, nd := range s.nodes {
		if got := nw.Node(nd.Name); got != nd {
			t.Fatalf("Node(%q) = %p, want the pointer AddHost/AddRouter returned (%p)", nd.Name, got, nd)
		}
		if got := nw.NodeByAddr(nd.Addr); got != nd {
			t.Fatalf("NodeByAddr(%v) = %p, want %p (%s)", nd.Addr, got, nd, nd.Name)
		}
	}
	if nw.NodeCount() != len(s.nodes) {
		t.Fatalf("NodeCount = %d, want %d", nw.NodeCount(), len(s.nodes))
	}
	order := netsim.CreationOrder(nw)
	if len(order) != len(s.nodes) {
		t.Fatalf("the node slab yields %d nodes, want %d", len(order), len(s.nodes))
	}
	for i, nd := range s.nodes {
		if order[i] != nd {
			t.Fatalf("the node slab yields %s at %d, want %s (creation order)", order[i].Name, i, nd.Name)
		}
	}
	got := nw.Links()
	if len(got) != len(s.links) {
		t.Fatalf("Links() has %d links, want %d", len(got), len(s.links))
	}
	for i, l := range s.links {
		if got[i] != l {
			t.Fatalf("Links()[%d] = %p, want the pointer Connect returned (%p)", i, got[i], l)
		}
	}

	// One datagram from the first cluster's first host to the last
	// cluster's last host crosses exactly four link directions.
	src, dst := s.nodes[2], s.nodes[len(s.nodes)-1]
	delivered, _ := netsim.CountingSink(dst, 9)
	if err := src.SendDatagram(dst.Addr, 9, 9, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if *delivered != 1 {
		t.Fatalf("delivered %d datagrams, want 1", *delivered)
	}
	srcSw, dstSw := nw.Node("sw0"), nw.Node(fmt.Sprintf("sw%d", s.clusters-1))
	onPath := map[[2]string]bool{
		{src.Name, srcSw.Name}: true, {srcSw.Name, "core"}: true,
		{"core", dstSw.Name}: true, {dstSw.Name, dst.Name}: true,
	}
	sent := 0
	for _, l := range s.links {
		st := l.Stats()
		if st[0].From != l.A.Name || st[0].To != l.B.Name || st[1].From != l.B.Name || st[1].To != l.A.Name {
			t.Fatalf("link %s--%s reports directions %s->%s and %s->%s",
				l.A.Name, l.B.Name, st[0].From, st[0].To, st[1].From, st[1].To)
		}
		for _, d := range st {
			want := int64(0)
			if onPath[[2]string{d.From, d.To}] {
				want = 1
			}
			if d.Sent != want || d.Enqueued != want {
				t.Fatalf("%s->%s sent %d, enqueued %d; want %d", d.From, d.To, d.Sent, d.Enqueued, want)
			}
			sent += int(d.Sent)
		}
	}
	if sent != len(onPath) {
		t.Fatalf("%d link directions carried the datagram, want %d", sent, len(onPath))
	}
}

// TestSlabSmallLANSlack bounds the storage a small network reserves: a
// fixed large chunk would make every two-host test and every small LAN
// pay for hundreds of unused nodes and links.
func TestSlabSmallLANSlack(t *testing.T) {
	nw, err := topology.Cluster(simcore.NewEngine(1), "n", 4, "10.0.0.1", 100e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nw.NodeCount() != 5 || len(nw.Links()) != 4 {
		t.Fatalf("cluster has %d nodes and %d links, want 5 and 4", nw.NodeCount(), len(nw.Links()))
	}
	if nodes, links := netsim.Reserved(nw); nodes > 2*5 || links > 2*4 {
		t.Errorf("4-host cluster reserved %d node and %d link slots for 5 nodes and 4 links", nodes, links)
	}

	// Unhinted growth doubles from a small first chunk.
	nw = netsim.New(simcore.NewEngine(1))
	a := nw.AddHost("a", netsim.MakeAddr(10, 0, 0, 1))
	b := nw.AddHost("b", netsim.MakeAddr(10, 0, 0, 2))
	nw.Connect(a, b, netsim.LinkConfig{BandwidthBps: 100e6})
	if nodes, links := netsim.Reserved(nw); nodes > 8 || links > 8 {
		t.Errorf("two-host network reserved %d node and %d link slots", nodes, links)
	}
}
