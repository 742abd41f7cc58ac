package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"microgrid/internal/scenario"
)

func TestSeededGeneration(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := w.scenario(11), w.scenario(11)
		if a != b {
			t.Errorf("%s: same seed gave different scenarios", name)
		}
		if w.scenario(12) == a {
			t.Errorf("%s: different seeds gave the same scenario", name)
		}
		s, err := scenario.ParseString(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Seed != 11 || (s.TopoGen != nil && s.TopoGen.Seed != 11) {
			t.Errorf("%s: seed 11 not applied: scenario %d, generator %+v", name, s.Seed, s.TopoGen)
		}
	}
}

func TestPartitionRung(t *testing.T) {
	serial, err := scenario.ParseString(partitionScenario(11, false))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := scenario.ParseString(partitionScenario(11, true))
	if err != nil {
		t.Fatal(err)
	}
	if serial.EngineShards != 0 || sharded.EngineShards != 2 || sharded.TopoGen.Seed != 11 {
		t.Fatalf("shards %d and %d, generator seed %d; want serial, 2 and 11",
			serial.EngineShards, sharded.EngineShards, sharded.TopoGen.Seed)
	}
	if testing.Short() {
		t.Skip("runs the rung")
	}
	st, err := rungPartition(11)
	if err != nil {
		t.Fatal(err)
	}
	if st.windows == 0 || st.cross == 0 || st.imbalance < 1 || st.speedup <= 0 {
		t.Errorf("partition rung stats %+v", st)
	}
}

// build-100k is the committed example with the seed substituted.
func TestBuild100kMatchesExample(t *testing.T) {
	data, err := os.ReadFile("../examples/scale-100k/scale100k.scenario")
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.ParseString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.ParseString(workloads["build-100k"].scenario(want.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("build-100k at seed %d:\n%s\nexample:\n%s", want.Seed, got, want)
	}
}

func TestDigestsCoverEveryWorkload(t *testing.T) {
	d, err := parseDigests(digestsText)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		if d[name] == "" {
			t.Errorf("no committed digest for %s", name)
		}
	}
	if _, err := parseDigests("lan-packet abc\n"); err == nil {
		t.Error("malformed digest line accepted")
	}
}

// tinyWorkload is a pingpong scenario that runs in about 0.1 s: long
// enough that reading memory statistics between phases stays a small
// share of an iteration, as it is on the real workloads.
var tinyWorkload = workload{name: "tiny", scenario: func(seed int64) string {
	return fmt.Sprintf("scenario tiny\nseed %d\ntarget procs=2 %s\nworkload pingpong bytes=2097152\n", seed, alphaMachine)
}}

func tinyRunner(want string) *runner {
	return &runner{w: tinyWorkload, seed: 1, text: tinyWorkload.scenario(1), want: want}
}

func TestWrongDigestCountsAsFailed(t *testing.T) {
	r := tinyRunner(strings.Repeat("0", 64))
	r.measure(200 * time.Millisecond)
	if len(r.samples) == 0 || r.attempts != len(r.samples) {
		t.Fatalf("samples %d, attempts %d: every iteration should still be timed", len(r.samples), r.attempts)
	}
	if len(r.failures) != r.attempts {
		t.Errorf("%d of %d iterations failed, want all", len(r.failures), r.attempts)
	}
}

func TestRightDigestPasses(t *testing.T) {
	probe := tinyRunner("")
	if _, err := probe.iterate(0, false); err != nil {
		t.Fatal(err)
	}
	r := tinyRunner(digest(probe.first))
	r.measure(200 * time.Millisecond)
	if len(r.failures) != 0 || len(r.setups) == 0 {
		t.Errorf("failures %v, set-up samples %d", r.failures, len(r.setups))
	}
}

func TestTracedRun(t *testing.T) {
	r := tinyRunner("")
	r.tr = newTracer()
	r.measure(100 * time.Millisecond)
	if len(r.failures) != 0 {
		t.Fatal(r.failures)
	}
	if len(r.pick(true, func(*sample) float64 { return 0 })) == 0 ||
		len(r.pick(false, func(*sample) float64 { return 0 })) == 0 {
		t.Fatal("a traced run must time both traced and untraced iterations")
	}
	for _, c := range r.tr.coverage() {
		if c < 0.97 || c > 1 {
			t.Errorf("phase self times cover %v of the iteration", c)
		}
	}
	iters := map[int]bool{}
	for _, s := range r.tr.spans {
		iters[s.Iter] = true
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	if len(iters) != len(r.pick(true, func(*sample) float64 { return 0 })) {
		t.Errorf("spans cover %d iterations", len(iters))
	}
	if len(r.liveAfterBuild) == 0 {
		t.Error("traced run measured no live heap after build")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("iteration", -1, 0, at(0), at(100))
	tr.add("a", root, 0, at(0), at(40))
	b := tr.add("b", root, 0, at(40), at(98))
	tr.add("c", b, 0, at(50), at(60))
	self := tr.selfTimes()
	want := []time.Duration{2, 40, 48, 10}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d self %v, want %vms", i, self[i], w)
		}
	}
	if cov := tr.coverage(); len(cov) != 1 || cov[0] < 0.9799 || cov[0] > 0.9801 {
		t.Errorf("coverage %v, want [0.98]", cov)
	}
}

// An unrun grid built for a set-up sample must not leave its processes'
// goroutines behind.
func TestSetupBatchReleasesGrids(t *testing.T) {
	r := tinyRunner("")
	if _, _, _, err := r.setupBatch(2, false); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, _, _, err := r.setupBatch(2, false); err != nil {
			t.Fatal(err)
		}
	}
	// An aborted process's goroutine exits just after the engine hears
	// from it, so give the last ones a moment; a leak would leave every
	// process of 10 grids behind.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines %d -> %d after set-up batches", before, after)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
