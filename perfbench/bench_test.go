package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"swapcodes/internal/jobs"
	"swapcodes/internal/verify"
	"swapcodes/internal/workloads"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
	}{
		{1, 50, 1, 0},
		{2, 50, 1, 1},
		{10, 50, 5, 5},
		{10, 90, 9, 1},
		{100, 90, 90, 10},
		{101, 90, 91, 10},
		{99, 90, 90, 9},
		{5, 100, 5, 0},
	} {
		got, beyond, ok := nearestRank(seq(tc.n), tc.p)
		if !ok || got != tc.want || beyond != tc.beyond {
			t.Errorf("nearestRank(1..%d, %v) = %v, %d beyond, ok %v; want %v, %d beyond",
				tc.n, tc.p, got, beyond, ok, tc.want, tc.beyond)
		}
	}
	if _, _, ok := nearestRank(nil, 50); ok {
		t.Error("nearestRank of an empty sample reported ok")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if v, ok := tailPercentile(seq(100), 90); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90, true (10 beyond)", v, ok)
	}
	if _, ok := tailPercentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples reported with only 9 beyond it")
	}
	if _, ok := tailPercentile(seq(1000), 99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it and should be reported")
	}
}

func TestTallyTreatsExpectedSkipsAsSkips(t *testing.T) {
	var tl tally
	tl.add(nil)
	tl.add(fmt.Errorf("mm/Inter-Thread: %w: CTA too large", errSkip))
	tl.add(fmt.Errorf("check: %w", fmt.Errorf("%w: %v", errSkip, verify.ErrNotApplicable)))
	if tl.failFrac() != 0 {
		t.Fatalf("fail_frac = %v with only skips, want 0", tl.failFrac())
	}
	// verify.ErrNotApplicable alone is not a skip: each workload maps it to errSkip.
	if failed := tl.add(verify.ErrNotApplicable); !failed {
		t.Error("an unmapped error was not counted as a failure")
	}
	tl.add(errors.New("output mismatch"))
	if tl.attempted != 5 || tl.skipped != 2 || tl.failed != 2 {
		t.Errorf("tally = %+v, want 5 attempted, 2 skipped, 2 failed", tl)
	}
	if got := tl.failFrac(); got != 0.4 {
		t.Errorf("fail_frac = %v, want 2/5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
		{Name: "c", Start: 50, End: 60, Parent: 2},
		{Name: "op", Start: 100, End: 150, Parent: -1, Pass: 1},
		{Name: "open", Start: 150, End: -1, Parent: -1},
	}
	got := selfTimes(spans, func(p int32) bool { return p == 0 })
	want := map[string]float64{"op": 20, "a": 30, "b": 40, "c": 10}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for name, ns := range want {
		if lt := got[name]; lt == nil || lt.Self != ns/1e9 || lt.N != 1 {
			t.Errorf("%s = %+v, want self %v ns", name, lt, ns)
		}
	}
}

// TestExpectedSkipCells pins verify_matrix's not-applicable cells: the two
// inter-thread schemes on mm and snap, under every option set.
func TestExpectedSkipCells(t *testing.T) {
	n := 0
	for _, w := range workloads.All() {
		for _, c := range verify.Matrix() {
			if expectedSkip(w.Name, c.Scheme) {
				n++
			}
		}
	}
	if n != 16 {
		t.Errorf("%d expected skip cells, want 16", n)
	}
}

// TestStealScaling checks the /proc/stat parse, the granted share and the
// choice of operation clock.
func TestStealScaling(t *testing.T) {
	a := parseStat("cpu  100 5 20 900 3 0 5 30 0 0")
	b := parseStat("cpu  380 5 40 1900 3 0 5 130 0 0")
	if a != (cpuStat{busy: 130, steal: 30}) {
		t.Fatalf("parseStat = %+v, want busy 130 steal 30", a)
	}
	if g := b.sub(a).granted(); g != 0.75 {
		t.Errorf("granted = %v, want 300/(300+100)", g)
	}
	if g := (cpuStat{busy: 50}).granted(); g != 1 {
		t.Errorf("granted without steal = %v, want 1", g)
	}
	if s := parseStat("cpu0 1 2 3"); s != (cpuStat{}) {
		t.Errorf("parseStat of a short line = %+v, want zeros", s)
	}

	bn := &bench{passes: []passStat{{rawWall: 2, granted: 0.5}}, ops: [][]opSample{{{wall: 0.4, cpu: 0.1}}}}
	if got := bn.opTimes(); got[0] != 0.1 {
		t.Errorf("serial op time = %v, want its CPU time 0.1", got[0])
	}
	if got := bn.medianWall(); got != 1 {
		t.Errorf("pass wall = %v, want 2 s × 0.5 granted", got)
	}
	bn.concurrentOps = true
	if got := bn.opTimes(); got[0] != 0.2 {
		t.Errorf("concurrent op time = %v, want 0.4 s × 0.5 granted", got[0])
	}
}

// TestConcurrentOps records operations and spans from several goroutines at
// once, as the served_jobs clients do.
func TestConcurrentOps(t *testing.T) {
	b := &bench{tr: newTracer()}
	b.beginPass(0)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				b.op(func() error {
					root := b.tr.start("op", -1, int32(i))
					defer b.tr.stop(root)
					b.tr.stop(b.tr.start("child", root, int32(i)))
					if i%10 == 0 {
						return errSkip
					}
					return nil
				})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if b.tally.attempted != 400 || b.tally.skipped != 40 || b.tally.failed != 0 || len(b.ops[0]) != 400 {
		t.Errorf("tally %+v with %d latencies, want 400 attempted, 40 skipped", b.tally, len(b.ops[0]))
	}
	layers := selfTimes(b.tr.snapshot(), nil)
	if layers["op"].N != 400 || layers["child"].N != 400 {
		t.Errorf("span counts op %d child %d, want 400 each", layers["op"].N, layers["child"].N)
	}
}

// fakeEvents serves one canned SSE body per job id.
func fakeEvents(t *testing.T, bodies map[string]string) *server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/jobs/"), "/events")
		body, ok := bodies[id]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		for _, frame := range strings.SplitAfter(body, "\n\n") {
			fmt.Fprint(w, frame)
			w.(http.Flusher).Flush()
		}
	}))
	t.Cleanup(ts.Close)
	return &server{base: ts.URL, hc: ts.Client()}
}

func sse(events ...jobs.Event) string {
	var b strings.Builder
	for _, ev := range events {
		data, _ := json.Marshal(ev)
		if ev.Seq > 0 {
			fmt.Fprintf(&b, "id: %d\n", ev.Seq)
		}
		fmt.Fprintf(&b, "data: %s\n\n", data)
	}
	return b.String()
}

func TestAwaitDoneDetectsTerminalEvents(t *testing.T) {
	srv := fakeEvents(t, map[string]string{
		// A live job: snapshot, progress, then the done event; bytes after
		// it must not be needed.
		"live": sse(
			jobs.Event{Type: "state", State: jobs.StateQueued},
			jobs.Event{Seq: 1, Type: "state", State: jobs.StateRunning},
			jobs.Event{Seq: 2, Type: "shard", State: jobs.StateRunning, ShardsDone: 1, ShardsTotal: 2},
			jobs.Event{Seq: 3, Type: "done", State: jobs.StateDone},
		) + ": trailing comment\n\n",
		// A job that finished before the client subscribed: the snapshot
		// alone is terminal.
		"finished": sse(jobs.Event{Type: "state", State: jobs.StateDone}),
		"failed":   sse(jobs.Event{Seq: 1, Type: "done", State: jobs.StateFailed, Error: "boom"}),
		"cut":      sse(jobs.Event{Seq: 1, Type: "state", State: jobs.StateRunning}),
		"garbled":  "data: {not json\n\n",
	})
	for id, wantErr := range map[string]string{
		"live": "", "finished": "", "failed": "boom",
		"cut": "stream ended", "garbled": "bad event", "missing": "http 404",
	} {
		err := srv.awaitDone(id)
		switch {
		case wantErr == "" && err != nil:
			t.Errorf("%s: %v", id, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: error %v, want one containing %q", id, err, wantErr)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and perfbench's
// workload and metric tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadFuncs) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(doc.Workloads), len(workloadFuncs))
	}
	for _, w := range doc.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, tc := range []struct {
		name string
		doc  []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(tc.doc) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", tc.name, len(tc.doc), len(tc.defs))
			continue
		}
		for i, m := range tc.doc {
			if m.Name != tc.defs[i].Name || m.Unit != tc.defs[i].Unit {
				t.Errorf("%s[%d] = %s %s, perfbench has %s %s", tc.name, i, m.Name, m.Unit, tc.defs[i].Name, tc.defs[i].Unit)
			}
		}
	}
}
