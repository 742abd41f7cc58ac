package scenario

import (
	"strings"
	"testing"
)

// Chaos events must target hosts and links the scenario itself
// declares; generator bugs then surface at parse time, positioned at
// the chaos section, instead of at arm time deep inside a run.

const chaosTopoHeader = `scenario chaos-check
seed 1
target procs=2 cpu=500
topology
  topology t
  host a 1.0.0.1
  host b 2.0.0.1
  router r
  link a r 100Mbps 25us
  link r b 100Mbps 25us
end
ranks a b
`

func TestChaosTargetValidation(t *testing.T) {
	cases := []struct {
		name  string
		chaos string
		want  string // "" = accept
	}{
		{"ok crash", "at 1s crash a\n", ""},
		{"ok linkdown", "at 1s linkdown a r for=1s\n", ""},
		{"ok linkdown reversed", "at 1s linkdown r a for=1s\n", ""},
		{"undeclared host", "at 1s crash ghost\n", `undeclared host "ghost"`},
		{"router not a host", "at 1s crash r\n", `undeclared host "r"`},
		{"undeclared link", "at 1s linkdown a b\n", "undeclared link"},
		{"flap undeclared", "at 1s flap a ghost down=1s up=1s count=2\n", "undeclared link"},
		{"degrade undeclared", "at 1s degrade ghost r bw=0.5\n", "undeclared link"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			text := chaosTopoHeader + "chaos\n  schedule s\n  " + strings.ReplaceAll(c.chaos, "\n", "\n  ") + "end\n"
			s, err := ParseString(text)
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid scenario rejected: %v", err)
				}
				// Programmatic validation agrees with the parser.
				if err := s.Validate(); err != nil {
					t.Fatalf("Validate rejects parsed scenario: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted chaos target:\n%s", text)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if pe, ok := err.(*ParseError); !ok || pe.Line < 1 {
				t.Fatalf("chaos-target error is not positioned: %v", err)
			}
		})
	}
}

func TestChaosTargetValidationLAN(t *testing.T) {
	header := "scenario lan-chaos\nseed 1\ntarget procs=2 cpu=500\n"
	ok := header + "chaos\n  schedule s\n  at 1s crash vm1 for=1s\n  at 2s linkdown vm0 lan-switch for=1s\nend\n"
	if _, err := ParseString(ok); err != nil {
		t.Fatalf("valid LAN chaos rejected: %v", err)
	}
	bad := header + "chaos\n  schedule s\n  at 1s crash vm7\nend\n"
	if _, err := ParseString(bad); err == nil || !strings.Contains(err.Error(), `undeclared host "vm7"`) {
		t.Fatalf("LAN chaos with out-of-range host: %v", err)
	}
}

// Each ranks entry names a declared topology host, once: a host takes
// one entry in the virtual host table, and several ranks share a host
// through the workload's rph= option, which the error points to.
func TestRanksMustNameTopologyHosts(t *testing.T) {
	for ranks, want := range map[string][]string{
		"ranks a ghost": {"absent from topology"},
		"ranks a a b":   {`ranks names "a" twice`, "rph="},
	} {
		_, err := ParseString(strings.Replace(chaosTopoHeader, "ranks a b", ranks, 1))
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: err = %v, want %q", ranks, err, w)
			}
		}
	}
}
