package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"microgrid/internal/chaos"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/trace"
)

// partitionedChaosRun executes NPB MG class S over the vBNS testbed —
// two ranks at UCSD, two at UIUC — under a WAN flap and a host crash
// with resilient resubmission, at the given shard count with automatic
// partitioning. It returns the report, its formatted text, the chaos
// timeline, and the canonical trace export: every byte of which must be
// independent of how the model was partitioned. The trace mask strips
// CatEngine so the serial run is comparable (partitioned builds strip
// it anyway; see TraceConfig.Mask).
func partitionedChaosRun(t *testing.T, shards int) (*Report, string, string, []byte) {
	t.Helper()
	traces := NewTraceCollector(TraceConfig{Mask: trace.CatAll &^ trace.CatEngine})
	s := Fig14Scenario()
	s.Workload.Bench = "MG"
	s.Workload.Class = 'S'
	s.EngineShards = shards
	s.Partition = &scenario.PartitionSpec{Auto: true}
	cs, err := chaos.ParseScheduleString("schedule wan-faults\n" +
		"at 400ms flap vbns-west vbns-east down=50ms up=100ms count=2\n" +
		"at 600ms crash uiuc0 for=500ms\n")
	if err != nil {
		t.Fatal(err)
	}
	s.Chaos = cs
	s.Retry = &scenario.RetrySpec{
		StatusTimeout: 5 * simcore.Second,
		MaxAttempts:   3,
		Backoff:       100 * simcore.Millisecond,
		BackoffJitter: 50 * simcore.Millisecond,
	}

	m, err := BuildScenarioEnv(s, ScenarioEnv{Trace: traces})
	if err != nil {
		t.Fatal(err)
	}
	if shards >= 1 && !m.Partitioned() {
		t.Fatalf("shards=%d with partition auto did not partition the vBNS grid", shards)
	}
	if shards == 0 && m.Partitioned() {
		t.Fatal("serial build claims to be partitioned")
	}
	if m.Partitioned() {
		shardOf, lookahead := m.PartitionShards()
		if lookahead != simcore.Millisecond {
			t.Fatalf("lookahead = %v, want the 1ms OC3 access delay", lookahead)
		}
		// The two sites must never share a shard with each other when
		// there are at least two shards to spread over.
		if shards >= 2 && shardOf["ucsd0"] == shardOf["uiuc0"] {
			t.Fatalf("ucsd0 and uiuc0 share shard %d", shardOf["ucsd0"])
		}
		if shardOf["ucsd0"] != shardOf["ucsd-gw"] {
			t.Fatal("ucsd0 and its gateway landed on different shards")
		}
	}
	rep, err := m.RunWorkload(s)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	timeline := chaos.FormatTimeline(m.ChaosTimeline())
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, traces.Runs()); err != nil {
		t.Fatal(err)
	}
	return rep, FormatScenarioReport(s.Name, rep), timeline, buf.Bytes()
}

// TestPartitionedRunByteIdentical is the ISSUE 8 oracle: the same vBNS
// chaos run must produce identical reports, chaos timelines (firings and
// jitter), and byte-identical canonical traces on the serial engine and
// the partitioned parallel engine at 1, 2 and 4 shards.
func TestPartitionedRunByteIdentical(t *testing.T) {
	serialRep, serialText, serialTL, serialTrace := partitionedChaosRun(t, 0)
	if serialRep.Attempts < 2 {
		t.Fatalf("want the crash to force a resubmission (got %d attempts); the backoff-jitter stream is untested otherwise", serialRep.Attempts)
	}
	if !strings.Contains(serialTL, "crash") || !strings.Contains(serialTL, "flap") {
		t.Fatalf("chaos timeline missing expected firings:\n%s", serialTL)
	}
	for _, shards := range []int{1, 2, 4} {
		rep, text, tl, tr := partitionedChaosRun(t, shards)
		if !reflect.DeepEqual(serialRep, rep) {
			t.Errorf("shards=%d: report diverged from serial:\nserial: %+v\nshards: %+v", shards, serialRep, rep)
		}
		if text != serialText {
			t.Errorf("shards=%d: formatted report diverged:\nserial:\n%s\nshards:\n%s", shards, serialText, text)
		}
		if tl != serialTL {
			t.Errorf("shards=%d: chaos timeline diverged:\nserial:\n%s\nshards:\n%s", shards, serialTL, tl)
		}
		if !bytes.Equal(serialTrace, tr) {
			t.Errorf("shards=%d: trace JSONL diverged from serial (%d vs %d bytes)",
				shards, len(serialTrace), len(tr))
		}
	}
}

// TestPlanPartition covers the cluster→shard resolution: automatic
// round-robin order, pinning, and the error cases.
func TestPlanPartition(t *testing.T) {
	spec, err := topology.VBNSSpec(topology.VBNSConfig{HostsPerSite: 2})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := spec.Build(simcore.NewEngine(1))
	if err != nil {
		t.Fatal(err)
	}

	// vBNS decomposes into four sub-millisecond clusters: the two campus
	// LANs plus the two singleton backbone routers (the 1 ms OC3 access
	// circuits and the 28 ms backbone are all wide-area).
	plan, err := planPartition(nw, 2, &PartitionConfig{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.clusters != 4 {
		t.Fatalf("plan = %+v, want 4 clusters", plan)
	}
	// Cluster order is by smallest node name: ucsd (ucsd-gw), uiuc
	// (uiuc-gw), vbns-east, vbns-west; round-robin over 2 shards.
	want := map[string]int{"ucsd0": 0, "ucsd-switch": 0, "uiuc1": 1, "vbns-east": 0, "vbns-west": 1}
	for name, shard := range want {
		if got := plan.shardOf[name]; got != shard {
			t.Errorf("shardOf[%s] = %d, want %d", name, got, shard)
		}
	}
	if plan.lookahead != simcore.Millisecond {
		t.Errorf("lookahead = %v, want 1ms", plan.lookahead)
	}

	// Pinning moves the whole cluster.
	plan, err = planPartition(nw, 4, &PartitionConfig{Assign: map[string]int{"uiuc0": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.shardOf["uiuc-gw"] != 3 || plan.shardOf["uiuc1"] != 3 {
		t.Errorf("pinning uiuc0 to 3 left its cluster at %d/%d",
			plan.shardOf["uiuc-gw"], plan.shardOf["uiuc1"])
	}

	for _, tc := range []struct {
		name string
		pc   *PartitionConfig
		want string
	}{
		{"unknown node", &PartitionConfig{Assign: map[string]int{"nope": 0}}, "unknown node"},
		{"shard out of range", &PartitionConfig{Assign: map[string]int{"ucsd0": 9}}, "have 2 shards"},
		{"split cluster", &PartitionConfig{Assign: map[string]int{"ucsd0": 0, "ucsd1": 1}}, "splits one cluster"},
	} {
		if _, err := planPartition(nw, 2, tc.pc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// A single-cluster LAN is a no-op plan.
	lan, err := Build(BuildConfig{Seed: 1, Target: AlphaCluster})
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := planPartition(lan.Grid.Network(), 2, &PartitionConfig{Auto: true}); err != nil || plan != nil {
		t.Errorf("single-cluster plan = %+v, %v; want nil, nil", plan, err)
	}
}

// TestPartitionPreview pins the offline planner the mgridtrace summary
// uses: same placement as the build, no hosts constructed.
func TestPartitionPreview(t *testing.T) {
	s := Fig14Scenario()
	s.EngineShards = 2
	s.Partition = &scenario.PartitionSpec{Auto: true}
	shardOf, lookahead, shards, err := PartitionPreview(s)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 2 || lookahead != simcore.Millisecond {
		t.Fatalf("shards=%d lookahead=%v, want 2 and 1ms", shards, lookahead)
	}
	if shardOf["ucsd0"] != 0 || shardOf["uiuc0"] != 1 {
		t.Fatalf("placement %v, want ucsd on 0 and uiuc on 1", shardOf)
	}
	// Serial scenario: preview reports a no-op.
	s.EngineShards = 0
	if m, _, _, err := PartitionPreview(s); err != nil || m != nil {
		t.Fatalf("serial preview = %v, %v; want nil map", m, err)
	}
}

// TestPartitionRequiresDirectMode pins the validation error.
func TestPartitionRequiresDirectMode(t *testing.T) {
	emu := HPVM
	_, err := Build(BuildConfig{
		Seed:      1,
		Target:    AlphaCluster,
		Emulation: &emu,
		Shards:    2,
		Partition: &PartitionConfig{Auto: true},
	})
	if err == nil || !strings.Contains(err.Error(), "direct mode") {
		t.Fatalf("err = %v, want direct-mode rejection", err)
	}
}

// TestParsePartitionFlag covers the CLI flag syntax.
func TestParsePartitionFlag(t *testing.T) {
	pc, err := ParsePartitionFlag("auto")
	if err != nil || pc == nil || !pc.Auto {
		t.Fatalf("auto: %+v, %v", pc, err)
	}
	pc, err = ParsePartitionFlag("ucsd0=0, uiuc0=1")
	if err != nil || pc.Assign["ucsd0"] != 0 || pc.Assign["uiuc0"] != 1 {
		t.Fatalf("map: %+v, %v", pc, err)
	}
	if pc, err := ParsePartitionFlag(""); err != nil || pc != nil {
		t.Fatalf("empty: %+v, %v", pc, err)
	}
	for _, bad := range []string{"nope", "a=", "a=x", "a=-1", "a=1,a=2"} {
		if _, err := ParsePartitionFlag(bad); err == nil {
			t.Errorf("ParsePartitionFlag(%q) accepted", bad)
		}
	}
}

// TestConcurrentEnvsIsolated runs the same vBNS scenario three times at
// once in one process, each build under its own env — serial, two
// shards, two shards partitioned — and its own trace collector. Engine
// and trace settings are per-build values, so the runs cannot see each
// other's: every collector holds exactly its own build, and reports and
// traces are byte-identical across the three engines.
func TestConcurrentEnvsIsolated(t *testing.T) {
	envs := []ScenarioEnv{
		{},
		{Shards: 2},
		{Shards: 2, Partition: &PartitionConfig{Auto: true}},
	}
	reports := make([]string, len(envs))
	traces := make([][]byte, len(envs))
	errs := make([]error, len(envs))
	var wg sync.WaitGroup
	for i := range envs {
		envs[i].Trace = NewTraceCollector(TraceConfig{Mask: trace.CatAll &^ trace.CatEngine})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := Fig14Scenario()
			s.Workload.Bench = "MG"
			m, err := BuildScenarioEnv(s, envs[i])
			if err != nil {
				errs[i] = err
				return
			}
			if got, want := m.Partitioned(), envs[i].Partition != nil; got != want {
				errs[i] = fmt.Errorf("partitioned = %v, want %v", got, want)
				return
			}
			rep, err := m.RunWorkload(s)
			if err != nil {
				errs[i] = err
				return
			}
			reports[i] = FormatScenarioReport(s.Name, rep)
			var buf bytes.Buffer
			errs[i] = trace.WriteJSONL(&buf, envs[i].Trace.Runs())
			traces[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, env := range envs {
		if errs[i] != nil {
			t.Fatalf("env %d: %v", i, errs[i])
		}
		runs := env.Trace.Runs()
		if len(runs) != 1 || runs[0].Label != "00:Alpha Cluster" {
			labels := make([]string, len(runs))
			for j, r := range runs {
				labels[j] = r.Label
			}
			t.Errorf("env %d: collector holds %v, want only its own build 00:Alpha Cluster", i, labels)
		} else if runs[0].Emitted == 0 {
			t.Errorf("env %d: collector recorded no events", i)
		}
		if reports[i] != reports[0] {
			t.Errorf("env %d: report diverged from serial:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
		if !bytes.Equal(traces[i], traces[0]) {
			t.Errorf("env %d: trace JSONL diverged from serial (%d vs %d bytes)", i, len(traces[i]), len(traces[0]))
		}
	}
}
