package microgrid

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// tracedChaosCrashJSONL runs the chaos-crash experiment (quick) with a
// trace collector on a campaign pool of the given width and returns the
// exported JSONL bytes.
func tracedChaosCrashJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	env := ScenarioEnv{Trace: NewTraceCollector(TraceConfig{Mask: TraceAll})}
	fn, err := GetExperiment("chaos-crash")
	if err != nil {
		t.Fatal(err)
	}
	tasks := []CampaignTask{{
		ID: "chaos-crash",
		Run: func(ctx context.Context) (*Experiment, error) {
			return fn(true, env)
		},
	}}
	results := RunCampaign(context.Background(), tasks, CampaignOptions{Workers: workers})
	if results[0].Status != CampaignOK {
		t.Fatalf("chaos-crash failed: %+v", results[0].Err)
	}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, env.Trace.Runs()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminismAcrossWorkers is the tracing acceptance criterion:
// one seed produces a byte-identical JSONL export regardless of the
// campaign worker count — including under injected faults, whose chaos
// events must appear in the stream.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	j1 := tracedChaosCrashJSONL(t, 1)
	j4 := tracedChaosCrashJSONL(t, 4)
	if len(j1) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(j1, j4) {
		t.Fatalf("trace export differs across worker counts: %d vs %d bytes", len(j1), len(j4))
	}
	out := string(j1)
	if !strings.Contains(out, `"cat":"chaos","name":"crash"`) {
		t.Error("chaos crash event missing from trace")
	}
	for _, want := range []string{`"cat":"mpi","name":"send"`, `"cat":"net","name":"hop"`,
		`"cat":"globus","name":"submit"`, `"cat":"cpu","name":"slice"`} {
		if !strings.Contains(out, want) {
			t.Errorf("expected event %s missing from trace", want)
		}
	}
	// Every recorder footer must surface its drop counter (satellite:
	// no silent caps).
	if !strings.Contains(out, `"dropped":`) {
		t.Error("drop counter missing from export footers")
	}
}

// TestTraceCollectorLabelsByBuildOrder checks that a trace collector
// labels recorders by build order so exports sort deterministically.
func TestTraceCollectorLabelsByBuildOrder(t *testing.T) {
	env := ScenarioEnv{Trace: NewTraceCollector(TraceConfig{Mask: TraceAll})}
	s := &Scenario{Name: "labels", Seed: 7, Target: ScenarioMachineOf(AlphaCluster)}
	for i := 0; i < 2; i++ {
		m, err := BuildScenarioEnv(s, env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunApp("t", func(ctx *AppContext) error {
			ctx.Proc.ComputeVirtualSeconds(0.01)
			return ctx.Comm.Barrier()
		}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	snaps := env.Trace.Runs()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	for i, want := range []string{"00:Alpha Cluster", "01:Alpha Cluster"} {
		if snaps[i].Label != want {
			t.Errorf("snapshot %d label = %q, want %q", i, snaps[i].Label, want)
		}
		if snaps[i].Emitted == 0 {
			t.Errorf("snapshot %d recorded no events", i)
		}
	}
}
