package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Op     int32  `json:"op"`     // operation id, -1 for pass-level work
	Pass   int32  `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that reads no clock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	pass  int32
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setPass stamps later spans with a pass index.
func (t *tracer) setPass(p int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass = int32(p)
	t.mu.Unlock()
}

// start opens a span and returns its id (-1 when untraced).
func (t *tracer) start(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Pass: t.pass})
	return int32(len(t.spans) - 1)
}

// stop closes a span and returns its duration in seconds (0 when untraced).
func (t *tracer) stop(id int32) float64 {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return float64(now-t.spans[id].Start) / 1e9
}

// layerTime is one span name's aggregate over the selected spans.
type layerTime struct {
	Name  string
	Total float64 // seconds of span duration
	Self  float64 // seconds not covered by child spans
	N     int
}

// selfTimes aggregates closed spans by name. A span's self time is its
// duration minus its children's durations. keep selects spans by pass
// (nil keeps every span).
func selfTimes(spans []span, keep func(pass int32) bool) map[string]*layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range spans {
		if s.End < 0 || (keep != nil && !keep(s.Pass)) {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Total += float64(d) / 1e9
		lt.Self += float64(d-child[i]) / 1e9
		lt.N++
	}
	return out
}

// durations returns the durations (seconds) of the closed spans with one
// name in the passes keep selects.
func durations(spans []span, name string, keep func(pass int32) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 && keep(s.Pass) {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// renderLayers prints the per-layer self-time table, largest first, with
// each layer's share of the summed self time of all spans.
func renderLayers(w io.Writer, layers map[string]*layerTime, perPass float64) {
	rows := make([]*layerTime, 0, len(layers))
	var total float64
	for _, lt := range layers {
		rows = append(rows, lt)
		total += lt.Self
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	fmt.Fprintf(w, "%-22s %8s %12s %12s %7s\n", "span", "n", "self s", "self s/pass", "share")
	for _, lt := range rows {
		share := 0.0
		if total > 0 {
			share = lt.Self / total
		}
		fmt.Fprintf(w, "%-22s %8d %12.4f %12.4f %6.1f%%\n",
			lt.Name, lt.N, lt.Self, lt.Self/perPass, 100*share)
	}
	fmt.Fprintln(w, strings.Repeat("-", 65))
}
