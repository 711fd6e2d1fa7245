// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig12 -workers 4
//	experiments -exp fig10,fig11 -tuples 10000 -seed 1
//	experiments -submit localhost:9090 -exp fig10,fig12
//
// Experiments: headline table1 table2 table3 table4 fig10 fig11 fig12
// fig13 cpistack memcpi fig14 fig15 fig16 smprof verify all. ("all" covers
// the tables and figures; "headline" recomputes the paper-vs-measured claim
// summary; "cpistack" decomposes each scheme's Figure 12 slowdown into
// per-kernel cycle stacks and a baseline-diff attribution table; "memcpi"
// re-runs the Figure 12 sweep with the sectored L1/MSHR/L2/DRAM memory
// hierarchy armed (sm.Config.MemModel) and reports each kernel's idle share
// by hierarchy level alongside the cache hit rates; "smprof"
// profiles the partitioned round loop itself — phase-A vs merge-barrier
// wall time, Amdahl ceiling, idle-skip savings per workload x scheme — and
// runs serially, so it is opt-in like "verify", which runs the
// differential verifier — every workload x scheme x optimization combo
// linted and checked for architectural equivalence against baseline — and
// is not part of "all" since it replays the whole workload suite 68 times.)
//
// Experiments run concurrently as jobs on one engine pool (-workers, default
// all cores) and share one harness.Session, which computes every launch and
// the injection campaign once however many experiments view them: fig12,
// fig13, cpistack, fig14, fig15, fig16 and headline read one set of
// (workload, scheme, memory model) launches, and fig10, fig11 and headline
// read one campaign. Simulation and injection results are bit-identical at
// any worker count, and output is printed in the canonical experiment order
// regardless of completion order. Ctrl-C (or -timeout) cancels the run and
// reports what finished.
//
// With -submit the server-backed experiments (headline, fig10, fig11,
// fig12, cpistack, memcpi, fig15, fig16, verify) run as jobs on a swapserve
// instead of locally — duplicates sharing a spec (fig10/fig11) collapse
// into one submission, and a warm server answers identical respins from
// its content-addressed cache. See EXPERIMENTS.md "Running the job
// server". One table (see table) holds every experiment's name, whether
// "all" covers it, its -submit job and its local computation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"swapcodes/internal/arith"
	"swapcodes/internal/compiler"
	"swapcodes/internal/ecc"
	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
	"swapcodes/internal/verify"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run (headline, table1..table4, fig10..fig16, cpistack, memcpi, smprof, verify, all)")
	tuples := flag.Int("tuples", 10000, "input tuples per unit for the fig10/fig11 injection campaign")
	seed := flag.Int64("seed", 1, "campaign master seed (results are bit-identical for a given seed at any -workers)")
	workers := flag.Int("workers", 0, "engine worker count (0 = all cores)")
	smWorkers := flag.Int("sm-workers", 0, "SM-simulator scheduler workers per launch for perf sweeps (0 = serial; results are bit-identical at any count)")
	memModel := flag.String("mem-model", "", "SM memory timing model for the perf-sweep figures: off (flat latency, the default) or sectored (L1/MSHR/L2/DRAM hierarchy; -exp memcpi always runs sectored)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no limit)")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files into this directory")
	chart := flag.Bool("chart", false, "render the performance figures as ASCII bar charts")
	verilogDir := flag.String("verilog", "", "export the synthesized units as structural Verilog into this directory")
	metricsOut := flag.String("metrics", "", "write run metrics to this file (.json, .csv, anything else: aligned table)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file, loadable in Perfetto / chrome://tracing")
	metricsInterval := flag.Duration("metrics-interval", 0, "print a progress line to stderr at this interval (e.g. 5s)")
	serve := flag.String("serve", "", "serve live observability on this address (GET /metrics Prometheus text, /runs JSON, /debug/pprof)")
	submit := flag.String("submit", "", "submit the experiments to a running swapserve at this base URL (e.g. http://127.0.0.1:9090) instead of running locally")
	tenant := flag.String("tenant", "", "tenant fairness key for -submit (empty = default tenant)")
	flag.Parse()

	c := config{tuples: *tuples, seed: *seed, smWorkers: *smWorkers, memModel: *memModel, chart: *chart}
	if *submit != "" {
		fail(runSubmit(*submit, *tenant, *exp, c))
		return
	}

	var rec *obs.Recorder
	if *metricsOut != "" || *traceOut != "" || *metricsInterval > 0 || *serve != "" {
		rec = obs.NewRecorder()
	}
	fail(run(rec, *exp, c, *workers, *timeout, *serve, *csvDir, *verilogDir,
		*metricsOut, *traceOut, *metricsInterval))
}

// run owns the experiment lifecycle so its defers fire on every exit path:
// the metrics/trace flush and the -serve shutdown happen on success, on
// cancellation (Ctrl-C, -timeout), on experiment failure, and during a
// panic unwind — a crashed run still leaves its partial observations.
func run(rec *obs.Recorder, exp string, c config, workers int, timeout time.Duration,
	serve, csvDir, verilogDir, metricsOut, traceOut string, metricsInterval time.Duration) (err error) {
	pool := engine.New(workers)
	pool.SetObs(rec)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The flush runs deferred — and exactly once — so partial observations
	// survive cancellation, failures, and panics.
	flusher := &obs.FileFlusher{Rec: rec, MetricsPath: metricsOut, TracePath: traceOut,
		Logf: func(path string) { fmt.Fprintln(os.Stderr, "wrote", path) }}
	defer func() {
		if ferr := flusher.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	if serve != "" {
		srv, serr := obs.StartServer(serve, rec.Registry(), func() any {
			return pool.Tracker().Snapshot()
		})
		if serr != nil {
			return serr
		}
		fmt.Fprintf(os.Stderr, "experiments: serving observability on %s\n", srv.URL())
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if serr := srv.Shutdown(sctx); serr != nil && err == nil {
				err = serr
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "experiments: workers=%d seed=%d tuples=%d\n",
		pool.Workers(), c.seed, c.tuples)
	stopProgress := obs.StartProgress(os.Stderr, metricsInterval, func() string {
		snap := pool.Tracker().Snapshot()
		return fmt.Sprintf("experiments: %s; tuples=%d",
			snap.String(), rec.Registry().SumCounters("faultsim.tuples"))
	})
	defer stopProgress()

	if verilogDir != "" {
		if err := os.MkdirAll(verilogDir, 0o755); err != nil {
			return err
		}
		for _, u := range arith.Units() {
			path := filepath.Join(verilogDir, strings.ReplaceAll(u.Name, "-", "_")+".v")
			if err := os.WriteFile(path, []byte(u.Circuit.Verilog()), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "wrote", path)
		}
	}

	// CSV write failures must not os.Exit past the deferred flush; the first
	// one is remembered and surfaces after the run.
	var csvMu sync.Mutex
	var csvErr error
	writeCSV := func(name, content string) {
		if csvDir == "" {
			return
		}
		csvMu.Lock()
		defer csvMu.Unlock()
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			if csvErr == nil {
				csvErr = err
			}
			return
		}
		path := filepath.Join(csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			if csvErr == nil {
				csvErr = err
			}
			return
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}

	// One session for the whole run: experiments that view the same
	// launches or campaign (fig12/fig13/cpistack/fig14/headline, fig10/
	// fig11/headline) share them through its memo, whichever job asks
	// first.
	sess := harness.NewSession(pool, harness.Options{SMWorkers: c.smWorkers,
		MemModel: c.memModel, Verify: true})
	selected, unknown := pick(table(c, sess, writeCSV), exp)
	if len(unknown) > 0 {
		return fmt.Errorf("unknown experiment %q", unknown[0])
	}

	// All selected experiments run concurrently as engine jobs; the harness
	// drivers they call fan out further on the same pool, which keeps the
	// global worker bound. Output and timings are buffered per experiment
	// and printed in canonical order.
	outputs := make([]string, len(selected))
	times := make([]time.Duration, len(selected))
	jobs := make([]engine.Job, len(selected))
	for i, e := range selected {
		i, e := i, e
		jobs[i] = engine.Job{Name: e.name, Run: func(ctx context.Context) error {
			start := time.Now()
			out, err := e.run(ctx)
			times[i] = time.Since(start)
			outputs[i] = out
			return err
		}}
	}
	start := time.Now()
	runErr := pool.Run(ctx, jobs)
	stopProgress()
	for i, e := range selected {
		if outputs[i] == "" {
			fmt.Fprintf(os.Stderr, "experiments: %s: no result (cancelled or failed)\n", e.name)
			continue
		}
		fmt.Println(outputs[i])
	}
	for i, e := range selected {
		if times[i] > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %-8s %8.2fs\n", e.name, times[i].Seconds())
		}
	}
	pr := pool.Tracker().Snapshot()
	fmt.Fprintf(os.Stderr, "experiments: total %.2fs; engine: %s\n",
		time.Since(start).Seconds(), pr.String())
	// The deferred flushObs writes metrics/trace after this return, so a
	// cancelled run (Ctrl-C, -timeout) still leaves its partial observations
	// on disk.
	if runErr != nil && rec != nil {
		fmt.Fprintln(os.Stderr, "experiments: cancelled; writing partial metrics")
	}
	if runErr == nil {
		runErr = csvErr
	}
	return runErr
}

// runSubmit is the -submit client mode: experiments become job specs
// against a running swapserve, which runs (or serves from cache) each one
// and returns the payload. Only the experiments with a spec in the table
// map; the local-only ones (static tables, fig13/fig14 post-processing)
// say so.
func runSubmit(base, tenant, exp string, c config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var served []experiment
	var names []string
	for _, e := range table(c, nil, nil) {
		if e.spec != nil {
			served = append(served, e)
			names = append(names, e.name)
		}
	}
	selected, unknown := pick(served, exp)
	if len(unknown) > 0 {
		return fmt.Errorf("experiment %q cannot run via -submit (server-backed: %s)",
			unknown[0], strings.Join(names, ", "))
	}

	cl := &jobs.Client{Base: base}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	}
	// fig10 and fig11 share one campaign spec; submit each distinct spec
	// once and reuse the payload (the server would cache-hit anyway, but
	// this also skips the duplicate polling).
	payloads := map[string][]byte{}
	for _, e := range selected {
		spec := *e.spec
		spec.Tenant = tenant
		norm := spec
		if err := norm.Normalize(); err != nil {
			return err
		}
		key := norm.Key()
		raw, ok := payloads[key]
		if !ok {
			var err error
			raw, err = cl.RunJob(ctx, spec, logf)
			if err != nil {
				return err
			}
			payloads[key] = raw
		}
		fmt.Printf("== %s ==\n%s\n", e.name, jobs.RenderPayload(raw))
	}
	return nil
}

// config is what the experiment table depends on: the flags that select
// what an experiment computes (not how or where it runs).
type config struct {
	tuples    int
	seed      int64
	smWorkers int
	memModel  string
	chart     bool
}

// experiment is one -exp name.
type experiment struct {
	name string
	// optIn experiments run only when named, never as part of "all":
	// verify replays the whole workload suite across 68 combos, and smprof
	// runs every launch strictly serially to keep its wall-time
	// attribution clean.
	optIn bool
	// spec is the server job that computes the experiment under -submit;
	// nil means local only.
	spec *jobs.Spec
	run  func(ctx context.Context) (string, error)
}

// table is the -exp name space, computing from session s and handing plot
// CSVs to writeCSV. Its order is the order output is printed in, however
// the jobs are scheduled. -submit reads only names and specs, with a nil
// session.
func table(c config, s *harness.Session, writeCSV func(name, content string)) []experiment {
	names := func(schemes []compiler.Scheme) []string {
		out := make([]string, len(schemes))
		for i, sc := range schemes {
			out[i] = harness.SchemeName(sc)
		}
		return out
	}
	sweep := func(kind string, schemes []compiler.Scheme, memModel string) *jobs.Spec {
		return &jobs.Spec{Kind: kind, Schemes: names(schemes), SMWorkers: c.smWorkers, MemModel: memModel}
	}
	campaign := &jobs.Spec{Kind: jobs.KindCampaign, Tuples: c.tuples, Seed: c.seed}
	static := func(render func() string) func(context.Context) (string, error) {
		return func(context.Context) (string, error) { return render(), nil }
	}
	perfFig := func(schemes []compiler.Scheme, csvName, title string) func(context.Context) (string, error) {
		return func(ctx context.Context) (string, error) {
			perf, err := s.Perf(ctx, schemes)
			if err != nil {
				return "", err
			}
			writeCSV(csvName, perf.CSV())
			return perf.Render(title), nil
		}
	}
	return []experiment{
		{name: "headline", spec: &jobs.Spec{Kind: jobs.KindHeadline, Tuples: c.tuples, Seed: c.seed},
			run: func(ctx context.Context) (string, error) {
				rows, err := s.Headline(ctx, c.tuples, c.seed)
				if err != nil {
					return "", err
				}
				return harness.RenderHeadline(rows), nil
			}},
		{name: "table1", run: static(harness.Table1)},
		{name: "table2", run: static(harness.Table2)},
		{name: "table3", run: static(harness.Table3)},
		{name: "table4", run: static(func() string {
			rows := harness.Table4()
			writeCSV("table4.csv", harness.Table4CSV(rows))
			return harness.RenderTable4(rows)
		})},
		{name: "fig10", spec: campaign, run: func(ctx context.Context) (string, error) {
			inj, err := s.Injection(ctx, c.tuples, c.seed)
			if err != nil {
				return "", err
			}
			writeCSV("fig10_fig11.csv", inj.CSV())
			if tl := inj.RenderThroughput(); tl != "" {
				fmt.Fprintf(os.Stderr, "experiments: %s\n", tl)
			}
			return inj.RenderFig10() + "\n" + inj.RenderConeStats(), nil
		}},
		{name: "fig11", spec: campaign, run: func(ctx context.Context) (string, error) {
			inj, err := s.Injection(ctx, c.tuples, c.seed)
			if err != nil {
				return "", err
			}
			out := inj.RenderFig11()
			out += fmt.Sprintf("pooled detection coverage: SEC-DED %.2f%%, Mod-127 %.2f%% (paper: >98.8%% / >99.3%%)\n",
				100*inj.DetectionCoverage(codeByName("SEC-DED-DP")),
				100*inj.DetectionCoverage(codeByName("Mod-127")))
			return out, nil
		}},
		{name: "fig12", spec: sweep(jobs.KindPerf, harness.Fig12Schemes(), c.memModel),
			run: func(ctx context.Context) (string, error) {
				perf, err := s.Perf(ctx, harness.Fig12Schemes())
				if err != nil {
					return "", err
				}
				out := perf.Render("Figure 12: slowdown over the un-duplicated program (Tesla P100-class SM model)")
				if c.chart {
					out += "\n" + perf.Chart("Figure 12 (chart)", 120)
				}
				writeCSV("fig12.csv", perf.CSV())
				return out, nil
			}},
		{name: "fig13", run: func(ctx context.Context) (string, error) {
			perf, err := s.Perf(ctx, harness.Fig13Schemes())
			if err != nil {
				return "", err
			}
			mix := harness.RunCodeMix(perf)
			writeCSV("fig13.csv", mix.CSV())
			return mix.Render(), nil
		}},
		{name: "cpistack", spec: sweep(jobs.KindCPIStack, harness.Fig12Schemes(), c.memModel),
			run: func(ctx context.Context) (string, error) {
				perf, err := s.Perf(ctx, harness.Fig12Schemes())
				if err != nil {
					return "", err
				}
				cs := harness.CPIStacks(perf)
				out := cs.Render("CPI stacks: where each scheme's cycles go (headline sweep)")
				out += "\n" + cs.RenderAttribution("Slowdown attribution vs unprotected baseline")
				if c.chart {
					out += "\n" + cs.Chart("CPI stacks (chart)")
				}
				writeCSV("cpistack.csv", cs.CSV())
				return out, nil
			}},
		// memcpi always runs with the hierarchy armed; under -mem-model
		// sectored its launches are fig12's.
		{name: "memcpi", spec: sweep(jobs.KindCPIStack, harness.Fig12Schemes(), "sectored"),
			run: func(ctx context.Context) (string, error) {
				perf, err := s.WithMemModel("sectored").Perf(ctx, harness.Fig12Schemes())
				if err != nil {
					return "", err
				}
				mc := harness.MemCPI(perf)
				out := mc.Render("Memory CPI: idle share by hierarchy level (Figure 12 sweep, sectored model)")
				if c.chart {
					out += "\n" + harness.CPIStacks(perf).Chart("CPI stacks with memory tiers (chart)")
				}
				writeCSV("memcpi.csv", mc.CSV())
				return out, nil
			}},
		{name: "fig14", run: func(ctx context.Context) (string, error) {
			pr, err := s.Power(ctx)
			if err != nil {
				return "", err
			}
			writeCSV("fig14.csv", pr.CSV())
			return pr.Render() +
				fmt.Sprintf("worst power overhead: %.0f%% (paper: <=15%%)\n", 100*(pr.MaxRelPower()-1)), nil
		}},
		{name: "fig15", spec: sweep(jobs.KindPerf, harness.Fig15Schemes(), c.memModel),
			run: perfFig(harness.Fig15Schemes(), "fig15.csv",
				"Figure 15: inter-thread duplication slowdown (fails on mm: CTA size; snap: shuffles)")},
		{name: "fig16", spec: sweep(jobs.KindPerf, harness.Fig16Schemes(), c.memModel),
			run: perfFig(harness.Fig16Schemes(), "fig16.csv",
				"Figure 16: Swap-Predict with plausible future check-bit predictors")},
		{name: "smprof", optIn: true, run: func(ctx context.Context) (string, error) {
			res, err := s.WithMemModel("").SMProf(ctx, harness.Fig12Schemes())
			if err != nil {
				return "", err
			}
			writeCSV("smprof.csv", res.CSV())
			return res.Render("SM round-loop attribution: parallel phase A vs serial merge vs idle-skip"), nil
		}},
		{name: "verify", optIn: true, spec: &jobs.Spec{Kind: jobs.KindVerify},
			run: func(ctx context.Context) (string, error) {
				res, err := s.Verify(ctx, verify.Matrix())
				if err != nil {
					return "", err
				}
				out := res.Render("Differential verification: workloads x schemes x {DCE, Schedule, DisableMoveProp}")
				if n := res.Failed(); n > 0 {
					return out, fmt.Errorf("verify: %d combo cells failed", n)
				}
				return out, nil
			}},
	}
}

// pick returns the experiments named in the comma-separated exp, in table
// order; "all" selects every experiment that is not opt-in. The second
// result lists the names the table does not hold.
func pick(table []experiment, exp string) (selected []experiment, unknown []string) {
	want := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	known := map[string]bool{"all": true}
	for _, e := range table {
		known[e.name] = true
		if want[e.name] || (want["all"] && !e.optIn) {
			selected = append(selected, e)
		}
	}
	for _, name := range strings.Split(exp, ",") {
		if name = strings.TrimSpace(name); !known[name] {
			unknown = append(unknown, name)
		}
	}
	return selected, unknown
}

func codeByName(name string) ecc.Code {
	for _, c := range harness.Fig11Codes() {
		if c.Name() == name {
			return c
		}
	}
	panic("unknown code " + name)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
