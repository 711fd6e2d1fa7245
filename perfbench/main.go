// Command perfbench is the repository's benchmark. One process runs
// one named workload against the layers' public entry points for a fixed
// measurement window and prints one JSON result line:
//
//	perfbench --workload perf_sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics derived from spans perfbench wraps
// around every call it makes into a layer. See README.md for the
// workloads, the metrics and the layer predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// outDir receives span dumps and run records, relative to the working
// directory (the repository root).
const outDir = ".bench_build/perfbench"

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the untraced run's metrics, reported by every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}, {"alloc_mb", "MB"},
	{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"}, {"ops_per_s", "1/s"},
}

// perLayer are the traced run's metrics. A workload that never calls into a
// layer reports that layer's metrics as 0. Times ending in _s are seconds
// per pass; jobs.*_ms are per-request medians.
var perLayer = []metricDef{
	{"sm.launch_flat_s", "s"}, {"sm.launch_sectored_s", "s"}, {"sm.launch_n", "count"},
	{"sm.new_gpu_s", "s"}, {"sm.ns_per_winstr", "ns"}, {"sm.cycles", "count"},
	{"sm.warp_instrs", "count"}, {"sim_mwinstr_per_s", "1/s"},
	{"memmodel.service_s", "s"}, {"memmodel.load_sectors", "count"},
	{"memmodel.l1_hit_frac", "ratio"}, {"memmodel.mshr_full_n", "count"},
	{"compiler.apply_s", "s"}, {"compiler.apply_n", "count"}, {"compiler.skip_n", "count"},
	{"workloads.verify_s", "s"},
	{"trace.collect_s", "s"}, {"trace.operands", "count"},
	{"arith.units_s", "s"},
	{"faultsim.shard_s", "s"}, {"faultsim.shard_n", "count"}, {"faultsim.injections", "count"},
	{"tuples_per_s", "1/s"},
	{"gates.cone_stats_s", "s"}, {"gates.site_evals", "count"}, {"gates.cone_nodes", "count"},
	{"gates.reeval_frac", "ratio"},
	{"harness.render_s", "s"},
	{"verify.subject_s", "s"}, {"verify.check_s", "s"}, {"verify.pass_n", "count"},
	{"verify.skip_n", "count"},
	{"jobs.submit_ms", "ms"}, {"jobs.complete_ms", "ms"}, {"jobs.result_ms", "ms"},
	{"jobs.hit_frac", "ratio"}, {"jobs.http_429_n", "count"},
	{"fail_frac", "ratio"}, {"tracing.wall_s", "s"}, {"tracing.overhead_s", "s"},
}

// workloadFuncs maps each workload name to its implementation.
var workloadFuncs = map[string]func(*bench) error{
	"perf_sweep":     runPerfSweep,
	"fault_campaign": runFaultCampaign,
	"verify_matrix":  runVerifyMatrix,
	"served_jobs":    runServedJobs,
}

// passStat is one pass of a workload's fixed work.
type passStat struct {
	rawWall, granted float64 // wall seconds; share of CPU time granted (see cpuStat)
	cpu, allocMB     float64
	ops              int
}

// wall is the pass's wall time without the time the hypervisor withheld.
func (p passStat) wall() float64 { return p.rawWall * p.granted }

// opSample is one operation's wall and process CPU seconds.
type opSample struct{ wall, cpu float64 }

// bench is one run's measurement state.
type bench struct {
	seed   int64
	window time.Duration
	tr     *tracer // nil when untraced
	// concurrentOps marks a workload whose operations overlap (served_jobs):
	// they are timed by the wall clock. Otherwise the program runs serially
	// and an operation's time is the process CPU time it used.
	concurrentOps bool

	setupRaw, setupGranted float64 // wall seconds of the set-up batch; granted share
	setupReps              int
	peakRSS                float64 // MB, read when the last pass ends
	passes                 []passStat
	mu                     sync.Mutex   // guards ops, tally and problems (served_jobs clients)
	ops                    [][]opSample // by pass
	tally                  tally
	guardBad               int // exact-count or digest mismatches between passes
	problems               []string

	counts map[string]int64   // exact counts of the first pass
	digest string             // output digest of the first pass
	layer  map[string]float64 // per-layer metrics, filled by the workload
}

// setup times the workload's set-up as one batch: fn runs reps times in
// a row, from a collected heap. setup_s is the batch's wall time without
// steal. Each workload picks reps so that the batch takes at least a
// quarter of a second, which averages out the host's jitter. The state
// built by the last call is the one the run uses.
func (b *bench) setup(reps int, fn func() error) error {
	runtime.GC()
	st0, t0 := readStat(), time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	b.setupRaw, b.setupReps = time.Since(t0).Seconds(), reps
	b.setupGranted = readStat().sub(st0).granted()
	return nil
}

// measure runs whole passes of the workload's fixed work in turn. The
// first pass always runs; a later one starts only if a pass of the median
// length so far still ends inside the window, so every pass completes and a
// run holds as many passes as fit.
func (b *bench) measure(pass func(i int) error) error {
	// The peak resident set covers the passes: return the set-up's freed
	// memory to the system and reset the peak.
	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds()+b.medianRawWall() <= b.window.Seconds(); i++ {
		b.beginPass(i)
		// Start every pass from a collected heap, untimed, so no pass pays
		// for its predecessor's garbage.
		runtime.GC()
		st0 := readStat()
		ops0, cpu0, alloc0, t0 := b.attempted(), cpuSeconds(), totalAlloc(), time.Now()
		if err := pass(i); err != nil {
			return err
		}
		b.passes = append(b.passes, passStat{
			rawWall: time.Since(t0).Seconds(),
			granted: readStat().sub(st0).granted(),
			cpu:     cpuSeconds() - cpu0,
			allocMB: float64(totalAlloc()-alloc0) / (1 << 20),
			ops:     b.attempted() - ops0,
		})
	}
	b.peakRSS = peakRSSMB()
	return nil
}

// beginPass opens pass i: later spans and operation samples belong to it.
func (b *bench) beginPass(i int) {
	b.tr.setPass(i)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops = append(b.ops, nil)
}

func (b *bench) attempted() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tally.attempted
}

// op times one operation and records its outcome (see tally.add).
func (b *bench) op(fn func() error) {
	c0, t0 := cpuSeconds(), time.Now()
	err := fn()
	sample := opSample{time.Since(t0).Seconds(), cpuSeconds() - c0}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := len(b.ops) - 1
	b.ops[p] = append(b.ops[p], sample)
	if b.tally.add(err) {
		b.problemLocked(err.Error())
	}
}

// fail counts a failure found after its operation was recorded.
func (b *bench) fail(msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tally.failed++
	b.problemLocked(msg)
}

// problem records a failure message (the first few are kept).
func (b *bench) problem(msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.problemLocked(msg)
}

func (b *bench) problemLocked(msg string) {
	if len(b.problems) < 10 {
		b.problems = append(b.problems, msg)
	}
}

// guard is the exact-count check: every pass must reproduce the
// first pass's counts and output digest exactly.
func (b *bench) guard(pass int, counts map[string]int64, digest string) {
	if b.counts == nil {
		b.counts, b.digest = counts, digest
		return
	}
	for k, v := range b.counts {
		if counts[k] != v {
			b.guardBad++
			b.problem(fmt.Sprintf("pass %d: count %s = %d, first pass had %d", pass, k, counts[k], v))
		}
	}
	if digest != b.digest {
		b.guardBad++
		b.problem(fmt.Sprintf("pass %d: output digest %s differs from first pass %s", pass, digest, b.digest))
	}
}

// passWalls lists the passes' wall times without steal.
func (b *bench) passWalls() []float64 {
	var w []float64
	for _, p := range b.passes {
		w = append(w, p.wall())
	}
	return w
}

// medianWall is the median of passWalls.
func (b *bench) medianWall() float64 { return median(b.passWalls()) }

// medianRawWall is the median pass wall time as the clock read it.
func (b *bench) medianRawWall() float64 {
	var w []float64
	for _, p := range b.passes {
		w = append(w, p.rawWall)
	}
	return median(w)
}

// opTimes is every operation's time in seconds: process CPU time for a
// serial workload, wall time scaled by its pass's granted share for
// concurrent operations.
func (b *bench) opTimes() []float64 {
	var out []float64
	for i, pass := range b.ops {
		for _, o := range pass {
			if b.concurrentOps {
				out = append(out, o.wall*b.passes[i].granted)
			} else {
				out = append(out, o.cpu)
			}
		}
	}
	return out
}

// layerSelf sets per-layer metrics to the self time per pass of the
// named spans (span name → metric name), less steal.
func (b *bench) layerSelf(names map[string]string) {
	layers := selfTimes(b.tr.snapshot(), b.inPass)
	for span, key := range names {
		if lt := layers[span]; lt != nil {
			b.layer[key] = b.perPass(lt.Self) * b.granted()
		}
	}
}

// perPass divides a whole-run per-layer total by the pass count.
func (b *bench) perPass(v float64) float64 { return v / float64(len(b.passes)) }

// granted is the passes' granted share, weighted by their wall time: the
// scale that takes steal out of span times.
func (b *bench) granted() float64 {
	var raw, wall float64
	for _, p := range b.passes {
		raw += p.rawWall
		wall += p.wall()
	}
	if raw == 0 {
		return 1
	}
	return wall / raw
}

// inPass selects spans recorded in a measured pass (the served set-up
// records pass -1).
func (b *bench) inPass(p int32) bool { return p >= 0 && int(p) < len(b.passes) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndValues computes the untraced metrics and their sample counts.
func (b *bench) endToEndValues() (map[string]float64, map[string]int, error) {
	var cpu, alloc []float64
	var ops int
	var passWall float64
	for _, p := range b.passes {
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, p.allocMB)
		ops += p.ops
		passWall += p.wall()
	}
	wall := b.passWalls()
	lat := b.opTimes()
	p50, _, _ := nearestRank(lat, 50)
	p90, ok := tailPercentile(lat, 90)
	if !ok {
		return nil, nil, fmt.Errorf("%d operations leave fewer than %d beyond p90", len(lat), minBeyond)
	}
	v := map[string]float64{
		"wall_s": median(wall), "cpu_s": median(cpu), "peak_rss_mb": b.peakRSS,
		"alloc_mb": median(alloc), "setup_s": b.setupRaw * b.setupGranted,
		"op_p50_ms": 1e3 * p50, "op_p90_ms": 1e3 * p90,
		"ops_per_s": float64(ops) / passWall,
	}
	n := map[string]int{
		"wall_s": len(wall), "cpu_s": len(cpu), "peak_rss_mb": 1, "alloc_mb": len(alloc),
		"setup_s": b.setupReps, "op_p50_ms": len(lat), "op_p90_ms": len(lat),
		"ops_per_s": ops,
	}
	return v, n, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: perf_sweep, fault_campaign, verify_matrix or served_jobs")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, traced int) error {
	fn, ok := workloadFuncs[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("bad --seconds %d or --trace %d", seconds, traced)
	}
	// The program under test runs serially; two procs leave one for the
	// garbage collector and, on served_jobs, the clients and HTTP server.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b := &bench{seed: seed, window: time.Duration(seconds) * time.Second,
		layer: make(map[string]float64)}
	if traced == 1 {
		b.tr = newTracer()
	}
	if err := fn(b); err != nil {
		return err
	}

	res := result{
		Correct:   b.tally.failed == 0 && b.guardBad == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed + b.guardBad,
		Metrics:   make(map[string]metric),
	}
	e2e, samples, err := b.endToEndValues()
	if err != nil {
		return err
	}
	id := identity()
	tag := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, traced)
	if b.tr != nil {
		spans := b.tr.snapshot()
		b.layer["fail_frac"] = b.tally.failFrac()
		b.layer["tracing.wall_s"] = e2e["wall_s"]
		b.layer["tracing.overhead_s"] = b.perPass(float64(countMeasured(spans, b)) * spanCost())
		for _, m := range perLayer {
			res.Metrics[m.Name] = metric{b.layer[m.Name], m.Unit}
		}
		layers := selfTimes(spans, b.inPass)
		fmt.Fprintf(os.Stderr, "per-layer self time, %s, %d passes:\n", tag, len(b.passes))
		renderLayers(os.Stderr, layers, float64(len(b.passes)))
		if err := writeSpans(filepath.Join(outDir, tag+"-spans.json"), spans); err != nil {
			return err
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{e2e[m.Name], m.Unit}
		}
	}
	var rawWalls, granted []float64
	for _, p := range b.passes {
		rawWalls = append(rawWalls, p.rawWall)
		granted = append(granted, p.granted)
	}
	rec := map[string]any{
		"identity": id, "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"result": res, "samples": samples, "passes": len(b.passes), "skipped": b.tally.skipped,
		"fail_frac": b.tally.failFrac(), "counts": b.counts, "output_digest": b.digest,
		"problems": b.problems, "end_to_end": e2e, "pass_walls_s": b.passWalls(),
		"pass_raw_walls_s": rawWalls, "pass_granted": granted,
		"setup_raw_s": b.setupRaw, "setup_granted": b.setupGranted,
	}
	if err := writeJSON(filepath.Join(outDir, tag+".json"), rec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "machine: %s\n", id)
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// countMeasured counts spans recorded in passes.
func countMeasured(spans []span, b *bench) int {
	n := 0
	for _, s := range spans {
		if b.inPass(s.Pass) {
			n++
		}
	}
	return n
}

// spanCost measures the tracer's cost per span (one start plus one stop)
// on a private tracer.
func spanCost() float64 {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.stop(t.start("x", -1, int32(i)))
	}
	return time.Since(t0).Seconds() / n
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS sets the process's peak resident set to its current one
// (Linux 4.0 and later; elsewhere the peak covers the whole run).
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAlloc is the Go heap's cumulative allocated bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
