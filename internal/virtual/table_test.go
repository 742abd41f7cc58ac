package virtual

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// TestEagerAndLazyHostTablesAgree builds one direct grid twice — eagerly
// and lazily — over every committed topology and a generated star, touches
// every host of both in a seeded order, and requires the two host tables
// to agree host for host and on every name and address lookup.
func TestEagerAndLazyHostTablesAgree(t *testing.T) {
	type named struct {
		name string
		spec *topology.Spec
	}
	var specs []named
	vbns, err := topology.VBNSSpec(topology.VBNSConfig{HostsPerSite: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, named{"vbns", vbns})
	files, err := filepath.Glob("../../examples/*/*.scenario")
	if err != nil {
		t.Fatal(err)
	}
	generated, err := filepath.Glob("../scenario/testdata/generated/*.scenario")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, generated...) {
		if spec := embeddedTopology(t, path); spec != nil {
			specs = append(specs, named{filepath.Base(path), spec})
		}
	}
	star, err := topology.Generate(topology.GenSpec{Kind: topology.GenStar, Hosts: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, named{"generated-star", star})
	if len(specs) < 4 {
		t.Fatalf("found only %d topologies", len(specs))
	}

	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			eager, lazy := tableGrid(t, s.spec, false), tableGrid(t, s.spec, true)
			rng := rand.New(rand.NewSource(7))
			for _, i := range rng.Perm(len(s.spec.Hosts)) {
				name := s.spec.Hosts[i].Name
				a, b := eager.Host(name), lazy.Host(name)
				if a == nil || b == nil {
					t.Fatalf("%s: eager %v, lazy %v", name, a, b)
				}
				if a.Name != b.Name || a.IP != b.IP || a.CPUSpeedMIPS != b.CPUSpeedMIPS ||
					a.Phys.Name != b.Phys.Name || a.Fraction != b.Fraction ||
					a.Engine().ShardIndex() != b.Engine().ShardIndex() ||
					a.Phys.Engine().ShardIndex() != b.Phys.Engine().ShardIndex() ||
					a.task.Name != b.task.Name || a.Mem.Limit() != b.Mem.Limit() {
					t.Fatalf("%s differs:\neager %+v\nlazy  %+v", name, a, b)
				}
			}

			queries := []string{"no-such-host", "9.9.9.9", "not.an.addr"}
			for _, h := range s.spec.Hosts {
				queries = append(queries, h.Name, h.Addr)
			}
			for _, r := range s.spec.Routers {
				queries = append(queries, r, eager.Network().Node(r).Addr.String())
			}
			for _, q := range queries {
				ea, eerr := eager.Resolve(q)
				la, lerr := lazy.Resolve(q)
				if ea != la || errString(eerr) != errString(lerr) {
					t.Errorf("Resolve(%q): eager %v %v, lazy %v %v", q, ea, eerr, la, lerr)
				}
				if a, err := netsim.ParseAddr(q); err == nil {
					if en, ln := hostName(eager.HostByIP(a)), hostName(lazy.HostByIP(a)); en != ln {
						t.Errorf("HostByIP(%v): eager %q, lazy %q", a, en, ln)
					}
				}
			}
			if eager.DeclaredHosts() != lazy.DeclaredHosts() || eager.MaterializedCount() != lazy.MaterializedCount() {
				t.Errorf("declared %d/%d, materialized %d/%d (eager/lazy)",
					eager.DeclaredHosts(), lazy.DeclaredHosts(), eager.MaterializedCount(), lazy.MaterializedCount())
			}
			if lazy.MaterializedCount() != len(s.spec.Hosts) {
				t.Errorf("materialized %d of %d hosts", lazy.MaterializedCount(), len(s.spec.Hosts))
			}
		})
	}
}

// tableGrid declares every host of spec on a direct grid, each on its own
// physical machine, with speeds and memory caps varying by position, and
// spreads the topology's clusters over three PDES shards.
func tableGrid(t *testing.T, spec *topology.Spec, lazy bool) *Grid {
	t.Helper()
	cfg := Config{Direct: true, Lazy: lazy}
	for i, h := range spec.Hosts {
		phys := "phys-" + h.Name
		cfg.Hosts = append(cfg.Hosts, HostConfig{
			Name: h.Name, IP: netsim.MustParseAddr(h.Addr),
			CPUSpeedMIPS: float64(100 + 50*(i%7)), MemoryBytes: int64(i%3) << 28,
			MappedPhysical: phys,
		})
		cfg.Phys = append(cfg.Phys, PhysConfig{Name: phys, CPUSpeedMIPS: 500})
	}
	pe := simcore.NewParallelEngine(1, 3)
	cfg.AssignEngines = func(nw *netsim.Network) map[string]*simcore.Engine {
		out := map[string]*simcore.Engine{}
		for _, nd := range nw.Nodes() {
			out[nd.Name] = pe.Shard(nw.ClusterOf(nd) % 3)
		}
		return out
	}
	g, err := NewGrid(pe.Shard(0), cfg, func(nw *netsim.Network, scale func(netsim.LinkConfig) netsim.LinkConfig) error {
		return spec.Apply(nw, scale)
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// embeddedTopology parses the inline topology section of a scenario
// file, or returns nil when the file has none.
func embeddedTopology(t *testing.T, path string) *topology.Spec {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var body []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.TrimSpace(line)
		switch {
		case !in && f == "topology":
			in = true
		case in && f == "end":
			spec, err := topology.ParseSpec(strings.NewReader(strings.Join(body, "\n")))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return spec
		case in:
			body = append(body, f)
		}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func hostName(h *Host) string {
	if h == nil {
		return "<nil>"
	}
	return h.Name
}
