package core

import (
	"fmt"
	"sort"

	"microgrid/internal/metrics"
	"microgrid/internal/scenario"
)

// Experiment is the outcome of reproducing one paper table or figure.
type Experiment struct {
	// ID is the figure identifier ("fig05", "fig10", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Table holds the regenerated rows (render with String or CSV).
	Table *metrics.Table
	// Metrics exposes key scalar results for tests and EXPERIMENTS.md.
	Metrics map[string]float64
	// Notes records caveats (class substitutions etc.).
	Notes []string
}

// MetricKeys returns metric names sorted.
func (e *Experiment) MetricKeys() []string {
	out := make([]string, 0, len(e.Metrics))
	for k := range e.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ExperimentFunc runs one experiment at the given scale. quick selects a
// reduced problem size for fast runs (tests, smoke checks); the full size
// matches the paper where tractable. Every arm builds its grid through
// BuildScenarioEnv with env, so the invocation's engine and trace
// settings reach each build.
type ExperimentFunc func(quick bool, env ScenarioEnv) (*Experiment, error)

// ExperimentInfo is one registry entry: the figure id, its one-line
// description (sourced from the representative scenario's metadata, so
// `mgrid -list` and the scenario files can never drift apart), the
// scenario itself, and the analysis function that runs the arms.
type ExperimentInfo struct {
	// ID is the figure identifier ("fig05", "fig10", "chaos-crash", ...).
	ID string
	// Desc is the scenario's Description, for listings.
	Desc string
	// Scenario returns the experiment's representative scenario. Multi-arm
	// experiments derive their variants (emulated/physical, fault/no-fault)
	// from this base.
	Scenario func() *scenario.Scenario
	// Fn runs the experiment.
	Fn ExperimentFunc
}

// Registry of all experiments, in paper order.
func Experiments() []ExperimentInfo {
	mk := func(id string, sc func() *scenario.Scenario, fn ExperimentFunc) ExperimentInfo {
		return ExperimentInfo{ID: id, Desc: sc().Description, Scenario: sc, Fn: fn}
	}
	return []ExperimentInfo{
		mk("fig05", Fig05Scenario, Fig05Memory),
		mk("fig06", Fig06Scenario, Fig06CPUFraction),
		mk("fig07", Fig07Scenario, Fig07QuantaDistribution),
		mk("fig08", Fig08Scenario, Fig08NetworkModel),
		mk("fig09", Fig09Scenario, Fig09Configurations),
		mk("fig10", Fig10Scenario, Fig10NPBClassA),
		mk("fig11", Fig11Scenario, Fig11QuantumSweep),
		mk("fig12", Fig12Scenario, Fig12CPUScaling),
		mk("fig14", Fig14Scenario, Fig14VBNSDegrade),
		mk("fig15", Fig15Scenario, Fig15EmulationRates),
		mk("fig16", Fig16Scenario, Fig16Cactus),
		mk("fig17", Fig17Scenario, Fig17Autopilot),
		mk("chaos-crash", ChaosCrashScenario, ChaosCrash),
		mk("chaos-flap", ChaosFlapScenario, ChaosFlap),
		mk("chaos-worker", ChaosWorkerScenario, ChaosWorker),
	}
}

// GetExperiment finds an experiment by ID.
func GetExperiment(id string) (ExperimentFunc, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Fn, nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}
