package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one
// iteration share Iter; Parent is the enclosing span's ID, -1 at the
// root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced iterations pay only the nil check.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span over [start, end] and returns its ID.
func (t *tracer) add(name string, parent, iter int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: iter, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// selfTimes returns each span's duration minus the part its children
// cover, indexed by span ID. Children never overlap each other.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfByName collects self times per span name over all iterations.
func (t *tracer) selfByName() map[string][]float64 {
	self := t.selfTimes()
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], self[i].Seconds())
	}
	return out
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// coverage returns, per traced iteration, the summed self time of the
// phases under the iteration span divided by the iteration's wall time:
// 1 minus the root's own self time, which is the time the benchmark
// spends between phases (reading memory statistics).
func (t *tracer) coverage() []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.Parent < 0 {
			out = append(out, 1-self[i].Seconds()/s.dur().Seconds())
		}
	}
	return out
}

// write stores the spans as JSON lines, followed by one summary line
// per span name giving the median self time.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	self := t.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := struct {
			Summary    string  `json:"summary"`
			Count      int     `json:"count"`
			MedianSelf float64 `json:"median_self_s"`
		}{n, len(self[n]), median(self[n])}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
