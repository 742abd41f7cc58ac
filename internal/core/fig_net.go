package core

import (
	"fmt"

	"microgrid/internal/metrics"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
)

// fig08Sizes are the paper's message sizes: 4 B to 256 KB by powers of 4.
var fig08Sizes = []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// fig08Scenario is one network-model arm: a two-node Alpha/Ethernet
// grid, direct (the "Ethernet" series) or emulated (the "Mgrid" series).
func fig08Scenario(emulated bool) *scenario.Scenario {
	s := &scenario.Scenario{
		Name:   "fig08-netbench",
		Seed:   8,
		Target: machineSpec(AlphaCluster.WithProcs(2)),
	}
	if emulated {
		// Fig. 8 validates the network model itself, so the emulation
		// runs at full feasible speed (fraction 1): CPU-window
		// quantization is Fig. 11's subject, not this figure's.
		emulateOn(s, AlphaCluster.WithProcs(2), 1.0)
	}
	return s
}

// Fig08Scenario is the representative Fig. 8 arm (the emulated series).
func Fig08Scenario() *scenario.Scenario {
	s := fig08Scenario(true)
	s.Description = "NSE network model: MPI latency/bandwidth vs message size, real vs MicroGrid"
	return s
}

// fig08Point holds one measured (latency, bandwidth) sample.
type fig08Point struct {
	latencyUs float64
	mbps      float64 // MB/s, as in the paper's bandwidth chart
}

// fig08Run executes the MPI latency/bandwidth micro-benchmarks on the
// grid one fig08 arm describes.
func fig08Run(emulated bool, sizes []int, env ScenarioEnv) (map[int]fig08Point, error) {
	m, err := BuildScenarioEnv(fig08Scenario(emulated), env)
	if err != nil {
		return nil, err
	}
	results := make(map[int]fig08Point)
	const pingpongs = 20
	_, err = func() (*Report, error) {
		return m.RunApp("netbench", func(ctx *AppContext) error {
			c := ctx.Comm
			peer := 1 - c.Rank()
			for _, size := range sizes {
				// Latency: round trips, halved.
				if err := c.Barrier(); err != nil {
					return err
				}
				start := ctx.Proc.Gettimeofday()
				for i := 0; i < pingpongs; i++ {
					if c.Rank() == 0 {
						if err := c.Send(peer, 1, size, nil); err != nil {
							return err
						}
						if _, _, err := c.Recv(peer, 1); err != nil {
							return err
						}
					} else {
						if _, _, err := c.Recv(peer, 1); err != nil {
							return err
						}
						if err := c.Send(peer, 1, size, nil); err != nil {
							return err
						}
					}
				}
				rtt := ctx.Proc.Gettimeofday().Sub(start).Seconds() / pingpongs
				// Bandwidth: stream ~2 MB (at least 8 messages), one-way,
				// closed by an ack.
				count := 2 * 1024 * 1024 / size
				if count < 8 {
					count = 8
				}
				if count > 512 {
					count = 512
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				bwStart := ctx.Proc.Gettimeofday()
				if c.Rank() == 0 {
					for i := 0; i < count; i++ {
						if err := c.Send(peer, 2, size, nil); err != nil {
							return err
						}
					}
					if _, _, err := c.Recv(peer, 3); err != nil {
						return err
					}
				} else {
					for i := 0; i < count; i++ {
						if _, _, err := c.Recv(peer, 2); err != nil {
							return err
						}
					}
					if err := c.Send(peer, 3, 1, nil); err != nil {
						return err
					}
				}
				elapsed := ctx.Proc.Gettimeofday().Sub(bwStart).Seconds()
				if c.Rank() == 0 {
					results[size] = fig08Point{
						latencyUs: rtt / 2 * 1e6,
						mbps:      float64(count*size) / elapsed / 1e6,
					}
				}
			}
			return nil
		}, RunOptions{})
	}()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Fig08NetworkModel reproduces the NSE network-modeling micro-benchmark
// (Fig. 8): MPI latency and bandwidth across message sizes on a 100 Mb
// Ethernet, real system vs MicroGrid — "the simulated network has similar
// characteristics with the real system".
func Fig08NetworkModel(quick bool, env ScenarioEnv) (*Experiment, error) {
	sizes := fig08Sizes
	if quick {
		sizes = []int{4, 1024, 65536}
	}
	real, err := fig08Run(false, sizes, env)
	if err != nil {
		return nil, err
	}
	emu, err := fig08Run(true, sizes, env)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Fig. 8 — NSE network modeling (100Mb Ethernet)",
		"size_bytes", "ethernet_lat_us", "mgrid_lat_us", "lat_err_%",
		"ethernet_mb_s", "mgrid_mb_s", "bw_err_%")
	m := map[string]float64{}
	var worstLat, worstBW float64
	for _, s := range sizes {
		r, e := real[s], emu[s]
		latErr := metrics.PercentError(e.latencyUs, r.latencyUs)
		bwErr := metrics.PercentError(e.mbps, r.mbps)
		tbl.AddRow(s, r.latencyUs, e.latencyUs, latErr, r.mbps, e.mbps, bwErr)
		if latErr > worstLat {
			worstLat = latErr
		}
		if bwErr > worstBW {
			worstBW = bwErr
		}
		m[fmt.Sprintf("lat_real_%d", s)] = r.latencyUs
		m[fmt.Sprintf("lat_mgrid_%d", s)] = e.latencyUs
		m[fmt.Sprintf("bw_real_%d", s)] = r.mbps
		m[fmt.Sprintf("bw_mgrid_%d", s)] = e.mbps
	}
	m["worst_latency_err_pct"] = worstLat
	m["worst_bandwidth_err_pct"] = worstBW
	return &Experiment{
		ID:      "fig08",
		Title:   "NSE network modeling: latency and bandwidth vs message size",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Series compare a direct run of the 2-node Alpha/Ethernet model with",
			"the MicroGrid-emulated run (rate 1, full feasible speed) in virtual time.",
		},
	}, nil
}

// Fig09Scenario carries the Fig. 9 metadata: the table is regenerated
// from the built-in machine configurations, no simulation runs.
func Fig09Scenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "fig09-configurations",
		Description: "virtual grid configurations studied (Alpha cluster, HPVM)",
		Seed:        9,
		Target:      machineSpec(AlphaCluster),
	}
}

// Fig09Configurations regenerates the virtual grid configurations table
// (Fig. 9).
func Fig09Configurations(bool, ScenarioEnv) (*Experiment, error) {
	tbl := metrics.NewTable("Fig. 9 — virtual grid configurations studied",
		"name", "#procs", "type_procs", "network", "compiler")
	for _, c := range []MachineConfig{AlphaCluster, HPVM} {
		tbl.AddRow(c.Name, c.Procs, c.ProcType, c.NetName, c.Compiler)
	}
	return &Experiment{
		ID:    "fig09",
		Title: "Virtual grid configurations",
		Table: tbl,
		Metrics: map[string]float64{
			"alpha_mips": AlphaCluster.CPUMIPS,
			"hpvm_mips":  HPVM.CPUMIPS,
			"alpha_bps":  AlphaCluster.NetBandwidthBps,
			"hpvm_bps":   HPVM.NetBandwidthBps,
		},
	}, nil
}

// PingPongOneWay measures one-way message latency between the first two
// grid hosts (used by the ablation benches).
func PingPongOneWay(m *MicroGrid, size int) (simcore.Duration, error) {
	var oneWay simcore.Duration
	_, err := m.RunApp("pp", func(ctx *AppContext) error {
		c := ctx.Comm
		peer := 1 - c.Rank()
		const iters = 10
		start := ctx.Proc.Gettimeofday()
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 1, size, nil); err != nil {
					return err
				}
				if _, _, err := c.Recv(peer, 1); err != nil {
					return err
				}
			} else {
				if _, _, err := c.Recv(peer, 1); err != nil {
					return err
				}
				if err := c.Send(peer, 1, size, nil); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			oneWay = ctx.Proc.Gettimeofday().Sub(start) / (2 * iters)
		}
		return nil
	}, RunOptions{})
	return oneWay, err
}
