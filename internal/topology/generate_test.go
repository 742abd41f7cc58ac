package topology

import (
	"fmt"
	"testing"
)

// TestGeneratedNamesMatchSprintf pins the generated host names and
// addresses to their fmt.Sprintf spelling at every index of a 100k-host
// star and fat tree, so appending digits by hand cannot change a name.
func TestGeneratedNamesMatchSprintf(t *testing.T) {
	for _, c := range []struct {
		kind   string
		prefix string
	}{{GenStar, "c"}, {GenFatTree, "e"}} {
		g := GenSpec{Kind: c.kind, Hosts: 100000, Seed: 7}
		spec, err := Generate(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(spec.Hosts) != g.Hosts {
			t.Fatalf("%s: %d hosts, want %d", c.kind, len(spec.Hosts), g.Hosts)
		}
		h := 0
		for i, n := range splitHosts(g.Hosts, g.clusterCount()) {
			for j := 0; j < n; j++ {
				got := spec.Hosts[h]
				name := fmt.Sprintf("%s%dh%d", c.prefix, i, j)
				addr := fmt.Sprintf("%d.%d.1.%d", 16+i/256, i%256, j+1)
				if got.Name != name || got.Addr != addr {
					t.Fatalf("%s host %d: got %s %s, want %s %s", c.kind, h, got.Name, got.Addr, name, addr)
				}
				h++
			}
		}
	}
}
