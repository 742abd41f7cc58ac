package core

import (
	"fmt"

	"microgrid/internal/metrics"
	"microgrid/internal/npb"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// npbScenario is the shared shape of every NPB experiment arm: one
// kernel run on one virtual machine configuration.
func npbScenario(name string, seed int64, target MachineConfig, bench string, class npb.Class) *scenario.Scenario {
	return &scenario.Scenario{
		Name:     name,
		Seed:     seed,
		Target:   machineSpec(target),
		Workload: &scenario.Workload{Kind: "npb", Bench: bench, Class: byte(class)},
	}
}

// emulateOn marks a scenario as MicroGrid-emulated: the named hardware
// hosts the virtual grid at the given simulation rate.
func emulateOn(s *scenario.Scenario, hw MachineConfig, rate float64) *scenario.Scenario {
	s.Emulation = machineSpec(hw)
	s.Rate = rate
	return s
}

// RunNPBOnce builds a grid from cfg and runs one NPB kernel, returning
// its virtual elapsed time (exported for the ablation benches). Like the
// figure experiments it routes through the scenario layer.
func RunNPBOnce(cfg BuildConfig, bench string, class npb.Class) (simcore.Duration, error) {
	s := scenarioFromBuild(cfg)
	s.Workload = &scenario.Workload{Kind: "npb", Bench: bench, Class: byte(class)}
	r, err := RunScenario(s)
	if err != nil {
		return 0, err
	}
	return r.VirtualElapsed, nil
}

// npbPair runs physical (direct) and MicroGrid (emulated) instances of
// one benchmark and returns both virtual times.
func npbPair(target MachineConfig, bench string, class npb.Class, quantum simcore.Duration, rate float64, env ScenarioEnv) (phys, emu simcore.Duration, err error) {
	pr, err := RunScenarioEnv(npbScenario("fig10-physical", 10, target, bench, class), env)
	if err != nil {
		return 0, 0, fmt.Errorf("%s physical: %w", bench, err)
	}
	// Emulate on hardware identical to the target.
	es := emulateOn(npbScenario("fig10-emulated", 10, target, bench, class), target, rate)
	es.Quantum = quantum
	er, err := RunScenarioEnv(es, env)
	if err != nil {
		return 0, 0, fmt.Errorf("%s emulated: %w", bench, err)
	}
	return pr.VirtualElapsed, er.VirtualElapsed, nil
}

// fig10Rate is the simulation rate for the validation runs: half speed,
// so the fraction scheduler and time virtualization are genuinely
// exercised (at rate 1 the emulation would degenerate to the direct run).
const fig10Rate = 0.5

// fig11Stagger is the daemon phase spread for the quantum study: a
// realistically imperfect deployment (daemons launched within ~a quarter
// of a duty cycle of each other).
const fig11Stagger = 0.25

// Fig10Scenario is the representative Fig. 10 arm: NPB BT class A on the
// Alpha cluster, emulated at half speed. The experiment sweeps both
// configurations and all five kernels around this shape.
func Fig10Scenario() *scenario.Scenario {
	s := emulateOn(npbScenario("fig10-npb-validation", 10, AlphaCluster, "BT", npb.ClassA),
		AlphaCluster, fig10Rate)
	s.Description = "NPB class A totals on Alpha cluster and HPVM: physical grid vs MicroGrid"
	return s
}

// Fig10NPBClassA reproduces the headline validation (Fig. 10): NPB
// class A total run times on the Alpha cluster and HPVM configurations,
// physical grid vs MicroGrid. The paper matches IS/LU/MG within 2% and
// EP/BT within 4%.
func Fig10NPBClassA(quick bool, env ScenarioEnv) (*Experiment, error) {
	class := npb.ClassA
	if quick {
		class = npb.ClassS
	}
	tbl := metrics.NewTable(fmt.Sprintf("Fig. 10 — NPB class %c totals: physical vs MicroGrid", class),
		"config", "bench", "pgrid_s", "mgrid_s", "err_%")
	m := map[string]float64{}
	worst := 0.0
	for _, target := range []MachineConfig{AlphaCluster, HPVM} {
		for _, bench := range npb.Names() {
			phys, emu, err := npbPair(target, bench, class, 0, fig10Rate, env)
			if err != nil {
				return nil, err
			}
			errPct := metrics.PercentError(emu.Seconds(), phys.Seconds())
			tbl.AddRow(target.Name, bench, phys.Seconds(), emu.Seconds(), errPct)
			key := fmt.Sprintf("%s_%s", shortName(target), bench)
			m[key+"_pgrid_s"] = phys.Seconds()
			m[key+"_mgrid_s"] = emu.Seconds()
			m[key+"_err_pct"] = errPct
			if errPct > worst {
				worst = errPct
			}
		}
	}
	m["worst_err_pct"] = worst
	notes := []string{"Paper: IS, LU, MG within 2%; EP, BT within 4%."}
	if quick {
		notes = append(notes, "Quick mode: class S instead of class A.")
	}
	return &Experiment{
		ID:      "fig10",
		Title:   fmt.Sprintf("NPB class %c validation on Alpha cluster and HPVM", class),
		Table:   tbl,
		Metrics: m,
		Notes:   notes,
	}, nil
}

func shortName(c MachineConfig) string {
	if c.Name == HPVM.Name {
		return "hpvm"
	}
	return "alpha"
}

// Fig11Scenario is the representative Fig. 11 arm: NPB MG class S
// emulated with a 10 ms quantum and staggered daemons.
func Fig11Scenario() *scenario.Scenario {
	s := emulateOn(npbScenario("fig11-quantum-sweep", 11, AlphaCluster, "MG", npb.ClassS),
		AlphaCluster, fig10Rate)
	s.Description = "scheduling quantum vs modeling accuracy (NPB class S, 2.5-30ms slices)"
	s.Quantum = 10 * simcore.Millisecond
	s.Stagger = fig11Stagger
	return s
}

// Fig11QuantumSweep reproduces the scheduling-quantum study (Fig. 11):
// NPB class S totals under MicroGrid slices of 2.5, 5, 10 and 30 ms,
// against the physical run. The paper: frequently synchronizing codes
// match better with shorter quanta.
func Fig11QuantumSweep(quick bool, env ScenarioEnv) (*Experiment, error) {
	benches := []string{"MG", "BT", "LU", "EP"}
	quanta := []simcore.Duration{
		2500 * simcore.Microsecond,
		5 * simcore.Millisecond,
		10 * simcore.Millisecond,
		30 * simcore.Millisecond,
	}
	if quick {
		benches = []string{"MG", "EP"}
		quanta = []simcore.Duration{2500 * simcore.Microsecond, 10 * simcore.Millisecond}
	}
	tbl := metrics.NewTable("Fig. 11 — scheduling quantum vs modeling accuracy (NPB class S)",
		"bench", "pgrid_s", "slice", "mgrid_s", "err_%")
	m := map[string]float64{}
	for _, bench := range benches {
		pr, err := RunScenarioEnv(npbScenario("fig11-physical", 11, AlphaCluster, bench, npb.ClassS), env)
		if err != nil {
			return nil, err
		}
		phys := pr.VirtualElapsed
		m[bench+"_pgrid_s"] = phys.Seconds()
		for _, q := range quanta {
			s := emulateOn(npbScenario("fig11-emulated", 11, AlphaCluster, bench, npb.ClassS),
				AlphaCluster, fig10Rate)
			s.Quantum = q
			// The paper's daemons started unsynchronized across machines;
			// the phase misalignment is what makes the error scale with the
			// quantum (shorter slice = shorter misalignment stalls).
			s.Stagger = fig11Stagger
			er, err := RunScenarioEnv(s, env)
			if err != nil {
				return nil, err
			}
			errPct := metrics.PercentError(er.VirtualElapsed.Seconds(), phys.Seconds())
			tbl.AddRow(bench, phys.Seconds(), q.String(), er.VirtualElapsed.Seconds(), errPct)
			m[fmt.Sprintf("%s_err_pct_%s", bench, q)] = errPct
		}
	}
	return &Experiment{
		ID:      "fig11",
		Title:   "Effect of scheduling quantum length on accuracy",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Paper: best class-S matches at 2.5ms (MG, LU), 5ms (BT), 10ms (EP);",
			"frequently synchronizing benchmarks need shorter quanta.",
		},
	}, nil
}

// fig12SlowNet pins the network at 1 Mb/s with 50 ms host-to-host
// latency while the CPU scales.
func fig12SlowNet(c MachineConfig) MachineConfig {
	return c.WithNetwork("1Mb WAN-ish", 1e6, 25*simcore.Millisecond)
}

// Fig12Scenario is the representative Fig. 12 arm: NPB MG on the
// 4×-scaled Alpha cluster over the pinned slow network.
func Fig12Scenario() *scenario.Scenario {
	s := npbScenario("fig12-cpu-scaling", 12, fig12SlowNet(AlphaCluster.Scale(4)), "MG", npb.ClassS)
	s.Description = "CPU-scaling extrapolation (1x-8x) at a fixed 1Mb/s, 50ms network"
	return s
}

// Fig12CPUScaling reproduces the technology-extrapolation study
// (Fig. 12): run times with 1×/2×/4×/8× CPU speed while the network is
// held at 1 Mb/s with 50 ms latency, normalized to 1×. EP speeds up
// nearly linearly; communication-bound codes saturate.
func Fig12CPUScaling(quick bool, env ScenarioEnv) (*Experiment, error) {
	benches := []string{"MG", "BT", "LU", "EP"}
	factors := []float64{1, 2, 4, 8}
	if quick {
		benches = []string{"MG", "EP"}
		factors = []float64{1, 4}
	}
	tbl := metrics.NewTable("Fig. 12 — total run times varying only the virtual CPU",
		"bench", "cpu_x", "time_s", "normalized")
	m := map[string]float64{}
	for _, bench := range benches {
		var base float64
		for _, f := range factors {
			target := fig12SlowNet(AlphaCluster.Scale(f))
			r, err := RunScenarioEnv(npbScenario("fig12-cpu-scaling", 12, target, bench, npb.ClassS), env)
			if err != nil {
				return nil, err
			}
			t := r.VirtualElapsed.Seconds()
			if f == 1 {
				base = t
			}
			norm := t / base
			tbl.AddRow(bench, f, t, norm)
			m[fmt.Sprintf("%s_norm_%gx", bench, f)] = norm
		}
	}
	return &Experiment{
		ID:      "fig12",
		Title:   "CPU-scaling extrapolation at fixed slow network",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Network held at 1Mb/s, 50ms host-to-host latency; times normalized to 1x CPU.",
			"Paper: significant speedups purely from CPU scaling (EP nearly linear).",
		},
	}, nil
}

// fig14Scenario places a 4-rank NPB job two-and-two across the fictional
// vBNS testbed with the given backbone bandwidth.
func fig14Scenario(bench string, wanBps float64) (*scenario.Scenario, error) {
	spec, err := topology.VBNSSpec(topology.VBNSConfig{
		HostsPerSite:  2,
		BottleneckBps: wanBps,
	})
	if err != nil {
		return nil, err
	}
	s := npbScenario("fig14-vbns-degrade", 14, AlphaCluster, bench, npb.ClassS)
	s.Topology = spec
	s.HostRanks = []string{"ucsd0", "ucsd1", "uiuc0", "uiuc1"}
	return s, nil
}

// Fig14Scenario is the representative Fig. 14 arm: NPB LU over the vBNS
// testbed at the full OC-12 backbone.
func Fig14Scenario() *scenario.Scenario {
	s, err := fig14Scenario("LU", topology.OC12Bps)
	if err != nil {
		// The built-in vBNS shape is statically valid; an error here is a
		// programming bug, not an input problem.
		panic(err)
	}
	s.Description = "NPB class S over the vBNS testbed, WAN link varied 622/155/10 Mb/s"
	return s
}

// Fig14VBNSDegrade reproduces the wide-area study (Figs. 13–14): 4-process
// NPB jobs with two processes at UCSD and two at UIUC across the fictional
// vBNS testbed, varying the major WAN link through 622, 155 and 10 Mb/s.
// The paper: performance is only mildly sensitive to bandwidth — latency
// dominates for all but EP.
func Fig14VBNSDegrade(quick bool, env ScenarioEnv) (*Experiment, error) {
	benches := []string{"LU", "BT", "MG", "EP"}
	bandwidths := []float64{topology.OC12Bps, topology.OC3Bps, 10e6}
	if quick {
		benches = []string{"MG", "EP"}
		bandwidths = []float64{topology.OC12Bps, 10e6}
	}
	tbl := metrics.NewTable("Fig. 14 — NPB class S over the vBNS testbed, varying the WAN link",
		"bench", "wan_bps", "time_s")
	m := map[string]float64{}
	for _, bench := range benches {
		for _, bw := range bandwidths {
			s, err := fig14Scenario(bench, bw)
			if err != nil {
				return nil, err
			}
			r, err := RunScenarioEnv(s, env)
			if err != nil {
				return nil, err
			}
			tbl.AddRow(bench, fmt.Sprintf("%.0fM", bw/1e6), r.VirtualElapsed.Seconds())
			m[fmt.Sprintf("%s_%gM_s", bench, bw/1e6)] = r.VirtualElapsed.Seconds()
		}
	}
	return &Experiment{
		ID:      "fig14",
		Title:   "NPB over the vBNS distributed cluster, WAN bandwidth sweep",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"2 processes at UCSD + 2 at UIUC; path traverses LAN, OC3 and the varied link.",
			"Paper: only mildly bandwidth-sensitive; latency dominates except for EP.",
		},
	}, nil
}

// Fig15Scenario is the representative Fig. 15 arm: NPB MG class A
// emulated at the base (1× slowdown) rate.
func Fig15Scenario() *scenario.Scenario {
	s := emulateOn(npbScenario("fig15-rate-invariance", 15, AlphaCluster, "MG", npb.ClassA),
		AlphaCluster, fig10Rate)
	s.Description = "emulation-rate invariance: identical virtual times at 1x-8x slowdown"
	return s
}

// Fig15EmulationRates reproduces the rate-invariance study (Fig. 15): the
// same workload emulated at 1×, 2×, 4× and 8× slowdown yields (nearly)
// identical virtual-time results.
func Fig15EmulationRates(quick bool, env ScenarioEnv) (*Experiment, error) {
	benches := []string{"MG", "BT", "LU", "EP"}
	slowdowns := []float64{1, 2, 4, 8}
	class := npb.ClassA
	if quick {
		benches = []string{"MG", "EP"}
		slowdowns = []float64{1, 4}
		class = npb.ClassS
	}
	tbl := metrics.NewTable(fmt.Sprintf("Fig. 15 — virtual run times varying the emulation rate (NPB class %c)", class),
		"bench", "slowdown", "rate", "time_s", "normalized")
	m := map[string]float64{}
	for _, bench := range benches {
		var base float64
		for _, slow := range slowdowns {
			rate := fig10Rate / slow
			s := emulateOn(npbScenario("fig15-rate-invariance", 15, AlphaCluster, bench, class),
				AlphaCluster, rate)
			r, err := RunScenarioEnv(s, env)
			if err != nil {
				return nil, err
			}
			t := r.VirtualElapsed.Seconds()
			if slow == 1 {
				base = t
			}
			norm := t / base
			tbl.AddRow(bench, fmt.Sprintf("%gx", slow), rate, t, norm)
			m[fmt.Sprintf("%s_norm_%gx", bench, slow)] = norm
		}
	}
	return &Experiment{
		ID:      "fig15",
		Title:   "Emulation-rate invariance of virtual-time results",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Paper: identical results in virtual Grid time across emulation speeds",
			"(normalized 0.85–1.05 in their Fig. 15).",
		},
	}, nil
}
