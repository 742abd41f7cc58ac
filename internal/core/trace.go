package core

import (
	"fmt"
	"sort"
	"sync"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// TraceConfig enables structured tracing on built MicroGrids.
type TraceConfig struct {
	// Mask selects the recorded categories (trace.CatAll for everything).
	// Partitioned builds strip CatEngine: dispatch telemetry is per-shard
	// and partition-dependent, while every other category is
	// byte-identical at any shard count.
	Mask trace.Category
	// BufSize is the ring capacity in events (trace.DefaultBufSize if 0).
	BufSize int
}

// TraceCollector traces every build it is handed through
// ScenarioEnv.Trace (cmd/mgrid's -trace flags create one per
// invocation): each build without a trace line of its own gets a
// recorder group — one recorder per engine the model spans, merged and
// canonicalized at export — labeled "NN:config" by build order. Labels
// are assigned under a lock but the *contents* of each recorder are
// produced by its own engine, so exports are deterministic whenever the
// set of builds is — which is why traced campaigns are restricted to one
// experiment.
type TraceCollector struct {
	cfg    TraceConfig
	mu     sync.Mutex
	groups [][]*trace.Recorder
}

// NewTraceCollector returns an empty collector recording with cfg.
func NewTraceCollector(cfg TraceConfig) *TraceCollector { return &TraceCollector{cfg: cfg} }

// group hands out the next recorder group: n recorders sharing one
// label, which carries the build ordinal so exports sort into build
// order.
func (c *TraceCollector) group(configName string, n int, strip trace.Category) []*trace.Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := newRecorders(c.cfg, fmt.Sprintf("%02d:%s", len(c.groups), configName), n, strip)
	c.groups = append(c.groups, recs)
	return recs
}

// Runs returns every collected build's trace, in build order, each
// group merged and canonicalized into one Run (see MicroGrid.Trace).
func (c *TraceCollector) Runs() []trace.Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	runs := make([]trace.Run, 0, len(c.groups))
	for _, g := range c.groups {
		runs = append(runs, mergeRecorders(g))
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
	return runs
}

func newRecorders(tc TraceConfig, label string, n int, strip trace.Category) []*trace.Recorder {
	recs := make([]*trace.Recorder, n)
	for i := range recs {
		recs[i] = trace.NewRecorder(tc.BufSize, tc.Mask&^strip)
		recs[i].Label = label
	}
	return recs
}

// attachRecorders wires tracing for one build: one recorder per engine
// the model spans (shard 0 only, or every shard when partitioned), from
// the build's own TraceConfig if given, else from the collector (nil
// for an untraced build). Partitioned builds drop CatEngine — see
// TraceConfig.Mask.
func attachRecorders(eng *simcore.Engine, par *simcore.ParallelEngine, plan *partitionPlan, tc *TraceConfig, traces *TraceCollector, configName string) []*trace.Recorder {
	engines := []*simcore.Engine{eng}
	strip := trace.Category(0)
	if plan != nil {
		strip = trace.CatEngine
		engines = engines[:0]
		for i := 0; i < par.NumShards(); i++ {
			engines = append(engines, par.Shard(i))
		}
	}
	var recs []*trace.Recorder
	switch {
	case tc != nil:
		recs = newRecorders(*tc, configName, len(engines), strip)
	case traces != nil:
		recs = traces.group(configName, len(engines), strip)
	}
	for i, r := range recs {
		engines[i].SetRecorder(r)
	}
	return recs
}

// mergeRecorders merges one build's recorders into a single canonical
// run: the bytes are independent of how the model was partitioned.
func mergeRecorders(recs []*trace.Recorder) trace.Run {
	parts := make([]trace.Run, 0, len(recs))
	for _, r := range recs {
		parts = append(parts, r.Snapshot())
	}
	return trace.MergeRuns(parts)
}

// Trace returns this instance's trace as one canonical run — its
// recorders merged and canonicalized, so the bytes are the same on the
// serial engine and at any shard count. An untraced instance returns an
// empty run.
func (m *MicroGrid) Trace() trace.Run { return mergeRecorders(m.recs) }
