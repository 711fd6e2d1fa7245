// Package swapcodes holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation. Each benchmark reports the
// figure's headline series as custom metrics (go test -bench=. -benchmem),
// so the rows the paper prints fall out of the benchmark log; the ablation
// benchmarks exercise the design decisions called out in DESIGN.md.
package swapcodes

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"swapcodes/internal/arith"
	"swapcodes/internal/compiler"
	"swapcodes/internal/ecc"
	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/gates"
	"swapcodes/internal/harness"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// metric sanitizes a label into a benchmark metric unit (no whitespace).
func metric(parts ...string) string {
	return strings.ReplaceAll(strings.Join(parts, "_"), " ", "")
}

// ---- Tables ----

func BenchmarkTable1Qualitative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.Table1()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable2SwapECCChanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.Table2()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable3CarryAdjust(b *testing.B) {
	r := ecc.NewResidue(4)
	for i := 0; i < b.N; i++ {
		for _, c := range []struct{ cin, cout bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			_ = r.CarryAdjustSignal(c.cin, c.cout)
			_ = r.AdjustCarry(7, c.cin, c.cout, 32)
		}
	}
}

func BenchmarkTable4Synthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Table4()
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Area, metric(r.Unit, "nand2"))
			}
		}
	}
}

// ---- Figures 10 and 11: gate-level injection ----

func benchCampaign(b *testing.B, tuples int) *harness.InjectionResult {
	b.Helper()
	inj, err := RunInjection(tuples, 1)
	if err != nil {
		b.Fatal(err)
	}
	return inj
}

func BenchmarkFig10ErrorSeverity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inj := benchCampaign(b, 2000)
		if i == 0 {
			for _, u := range inj.Units {
				one, _, _ := u.SeverityFrac(faultsim.OneBit)
				four, _, _ := u.SeverityFrac(faultsim.FourPlusBits)
				b.ReportMetric(100*one, metric(u.Unit.Name, "1bit%"))
				b.ReportMetric(100*four, metric(u.Unit.Name, "4plus%"))
			}
		}
	}
}

func BenchmarkFig11SDCRisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inj := benchCampaign(b, 2000)
		if i == 0 {
			for _, code := range harness.Fig11Codes() {
				f, _ := inj.PooledSDC(code)
				b.ReportMetric(100*f, metric(code.Name(), "sdc%"))
			}
		}
	}
}

// ---- Figures 12, 15, 16: performance ----

func benchPerf(b *testing.B, schemes []compiler.Scheme, label string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		perf, err := RunPerf(schemes, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range schemes {
				b.ReportMetric(100*perf.MeanSlowdown(s), metric(s.String(), "mean%"))
				worst, _ := perf.WorstSlowdown(s)
				b.ReportMetric(100*worst, metric(s.String(), "worst%"))
			}
		}
	}
	_ = label
}

func BenchmarkFig12Slowdown(b *testing.B) { benchPerf(b, harness.Fig12Schemes(), "fig12") }

func BenchmarkFig15InterThread(b *testing.B) { benchPerf(b, harness.Fig15Schemes(), "fig15") }

func BenchmarkFig16FuturePredictors(b *testing.B) { benchPerf(b, harness.Fig16Schemes(), "fig16") }

// ---- Figure 13: instruction bloat ----

func BenchmarkFig13InstructionBloat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		perf, err := RunPerf(harness.Fig13Schemes(), false)
		if err != nil {
			b.Fatal(err)
		}
		mix := harness.RunCodeMix(perf)
		if i == 0 {
			for _, s := range harness.Fig13Schemes() {
				b.ReportMetric(100*mix.MeanBloat(s), metric(s.String(), "bloat%"))
			}
			lo, hi := mix.CheckingBloatRange()
			b.ReportMetric(100*lo, "checking_min%")
			b.ReportMetric(100*hi, "checking_max%")
		}
	}
}

// ---- Figure 14: power and energy ----

func BenchmarkFig14PowerEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr, err := harness.NewSession(engine.New(0), harness.Options{}).Power(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range pr.Rows {
				b.ReportMetric(row.RelPower, metric(row.Workload, row.Scheme.String(), "relP"))
				b.ReportMetric(row.RelEnergy, metric(row.Workload, row.Scheme.String(), "relE"))
			}
		}
	}
}

// ---- Ablations (DESIGN.md Section 4) ----

// ablationRun measures one workload/scheme under a config tweak and reports
// the slowdown versus the same config's baseline.
func ablationRun(b *testing.B, name string, scheme compiler.Scheme, opts compiler.Opts, tweak func(*sm.Config)) {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	run := func(s compiler.Scheme) int64 {
		k, err := compiler.ApplyOpts(w.Kernel, s, opts)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sm.DefaultConfig()
		if tweak != nil {
			tweak(&cfg)
		}
		g := w.NewGPU(cfg)
		st, err := g.Launch(k)
		if err != nil {
			b.Fatal(err)
		}
		return st.Cycles
	}
	base := run(compiler.Baseline)
	cyc := run(scheme)
	b.ReportMetric(100*float64(cyc-base)/float64(base), "slowdown%")
}

// BenchmarkAblationBypass quantifies the no-register-bypassing assumption
// (Section III-A / VI): an idealized bypass network shortens dependent
// chains for baseline and Swap-ECC alike.
func BenchmarkAblationBypass(b *testing.B) {
	b.Run("noBypass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ablationRun(b, "lavaMD", compiler.SwapECC, compiler.Opts{}, nil)
		}
	})
	b.Run("bypassed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ablationRun(b, "lavaMD", compiler.SwapECC, compiler.Opts{},
				func(c *sm.Config) { c.BypassSaving = 3 })
		}
	})
}

// BenchmarkAblationMoveProp quantifies end-to-end move propagation
// (Figure 4): disabling it forces Swap-ECC to duplicate every MOV.
func BenchmarkAblationMoveProp(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ablationRun(b, "pathf", compiler.SwapECC, compiler.Opts{}, nil)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ablationRun(b, "pathf", compiler.SwapECC, compiler.Opts{DisableMoveProp: true}, nil)
		}
	})
}

// BenchmarkAblationOccupancy quantifies the register-pressure mechanism: an
// infinite register file removes SW-Dup's occupancy loss on SNAP.
func BenchmarkAblationOccupancy(b *testing.B) {
	b.Run("realRegfile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ablationRun(b, "snap", compiler.SWDup, compiler.Opts{}, nil)
		}
	})
	b.Run("infiniteRegfile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ablationRun(b, "snap", compiler.SWDup, compiler.Opts{},
				func(c *sm.Config) { c.RegFileWords = 1 << 24 })
		}
	})
}

// BenchmarkSectionVIComparisons reports the Section VI discussion points:
// HW-Sig-SRIV (SInRG's most aggressive organization) versus Swap-ECC, and
// the SEC-DED add-predictor area story.
func BenchmarkSectionVIComparisons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		perf, err := RunPerf([]compiler.Scheme{compiler.SwapECC, compiler.SInRGSig}, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*perf.MeanSlowdown(compiler.SwapECC), "SwapECC_mean%")
			b.ReportMetric(100*perf.MeanSlowdown(compiler.SInRGSig), "HWSigSRIV_mean%")
			b.ReportMetric(arith.NewSECDEDAddPredictorCircuit().AreaNAND2(), "SECDEDAddPred_nand2")
		}
	}
}

// ---- Engine scaling ----

// BenchmarkEngineScaling runs the same sharded IMAD32 injection campaign at
// 1/2/4/8 workers. The tuples/sec metric is the scaling curve; the results
// themselves are bit-identical at every width (that is the engine's
// determinism contract, asserted by the faultsim and harness tests).
func BenchmarkEngineScaling(b *testing.B) {
	u := arith.NewIMAD32()
	const tuples = 2048
	in := make([][]uint64, tuples)
	for i := range in {
		in[i] = []uint64{uint64(i) * 2654435761, uint64(i) * 40503, uint64(i) * 2246822519}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := engine.New(workers)
			c := &faultsim.ShardedCampaign{Unit: u, MasterSeed: 1, ShardSize: 128}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inj, err := c.Run(context.Background(), pool, in)
				if err != nil {
					b.Fatal(err)
				}
				if len(inj) != tuples {
					b.Fatalf("%d injections", len(inj))
				}
			}
			b.ReportMetric(float64(tuples*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// ---- Microbenchmarks for the substrate hot paths ----

func BenchmarkHsiaoEncode(b *testing.B) {
	h := ecc.NewHsiao()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= h.Encode(uint32(i) * 2654435761)
	}
	_ = sink
}

func BenchmarkResidueMADPredict(b *testing.B) {
	r := ecc.NewResidue(7)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= r.PredictMAD(uint32(i)%127, uint32(i+1)%127, uint32(i+2)%127, uint32(i+3)%127)
	}
	_ = sink
}

func BenchmarkSimulatorLavaMD(b *testing.B) {
	w, err := workloads.ByName("lavaMD")
	if err != nil {
		b.Fatal(err)
	}
	k := compiler.MustApply(w.Kernel, compiler.SwapECC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := w.NewGPU(sm.DefaultConfig())
		st, err := g.Launch(k)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.DynWarpInstrs)/float64(st.Cycles), "ipc")
	}
}

// BenchmarkCampaignEvaluator isolates the injection loop of the Figure 10/11
// campaigns: the same campaign (same seed, same tuple stream, bit-identical
// Injection output) on the event-driven incremental evaluator versus the
// naive whole-netlist evaluator. Each unit is built once, so only the first
// iteration pays the one-off cone-size pass (see BenchmarkConeStats). The
// full/incremental ns/op ratio per unit is the campaign speedup recorded in
// EXPERIMENTS.md.
func BenchmarkCampaignEvaluator(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, u := range arith.Units() {
		tuples := make([][]uint64, 256)
		for i := range tuples {
			ops := make([]uint64, len(u.OperandWidths))
			for j, w := range u.OperandWidths {
				ops[j] = rng.Uint64() >> (64 - uint(w))
			}
			tuples[i] = ops
		}
		for _, mode := range []struct {
			name string
			full bool
		}{{"incremental", false}, {"full", true}} {
			b.Run(u.Name+"/"+mode.name, func(b *testing.B) {
				var injections int
				for i := 0; i < b.N; i++ {
					c := faultsim.NewCampaign(u, 1)
					c.FullEval = mode.full
					injections = len(c.Run(tuples))
				}
				b.ReportMetric(float64(len(tuples))*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
				b.ReportMetric(float64(injections), "unmasked")
			})
		}
	}
}

// BenchmarkConeStats is the per-unit cone-build microbench: the one
// bit-parallel pass that counts every node's static fan-out cone size, plus
// the sum over fault sites. The sizes are memoized per circuit, so each
// iteration times a freshly built unit; the build itself is excluded.
func BenchmarkConeStats(b *testing.B) {
	for _, build := range []func() *arith.Unit{
		arith.NewIAdd32, arith.NewIMAD32, arith.NewFAdd32,
		arith.NewFFMA32, arith.NewFAdd64, arith.NewFFMA64,
	} {
		b.Run(build().Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u := build()
				b.StartTimer()
				u.ConeStats()
			}
		})
	}
}

// BenchmarkGateEvalZeroAlloc pins the allocation-free contract of the two
// hot evaluation paths on a real unit netlist (see also the gates package's
// TestEvalZeroAlloc on random circuits).
func BenchmarkGateEvalZeroAlloc(b *testing.B) {
	u := arith.NewIMAD32()
	tuples := make([][]uint64, 64)
	for i := range tuples {
		tuples[i] = []uint64{uint64(i) * 7, uint64(i) * 13, uint64(i) * 29}
	}
	in := u.PackOperands(tuples)
	sites := u.Circuit.FaultSites()
	b.Run("Eval", func(b *testing.B) {
		ev := gates.NewEvaluator(u.Circuit)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.Eval(in, sites[i%len(sites)])
		}
	})
	b.Run("EvalSite", func(b *testing.B) {
		ev := gates.NewConeEvaluator(u.Circuit)
		ev.Baseline(in)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.EvalSite(sites[i%len(sites)])
		}
	})
}

func BenchmarkGateEvalIMAD(b *testing.B) {
	u := arith.NewIMAD32()
	tuples := make([][]uint64, 64)
	for i := range tuples {
		tuples[i] = []uint64{uint64(i) * 7, uint64(i) * 13, uint64(i) * 29}
	}
	in := u.PackOperands(tuples)
	ev := gates.NewEvaluator(u.Circuit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Eval(in, gates.NoFault)
	}
}

// BenchmarkAblationScheduler measures the Table II "Swap-ECC-aware
// scheduling" pass: latency-aware list scheduling of the protected kernel.
func BenchmarkAblationScheduler(b *testing.B) {
	run := func(b *testing.B, scheduled bool) {
		var sum float64
		n := 0
		for _, w := range workloads.All() {
			k := compiler.MustApply(w.Kernel, compiler.SwapECC)
			if scheduled {
				k = compiler.Schedule(k)
			}
			base := compiler.MustApply(w.Kernel, compiler.Baseline)
			if scheduled {
				base = compiler.Schedule(base)
			}
			gb := w.NewGPU(sm.DefaultConfig())
			stB, err := gb.Launch(base)
			if err != nil {
				b.Fatal(err)
			}
			g := w.NewGPU(sm.DefaultConfig())
			st, err := g.Launch(k)
			if err != nil {
				b.Fatal(err)
			}
			sum += float64(st.Cycles-stB.Cycles) / float64(stB.Cycles)
			n++
		}
		b.ReportMetric(100*sum/float64(n), "SwapECC_mean%")
	}
	b.Run("unscheduled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, false)
		}
	})
	b.Run("scheduled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, true)
		}
	})
}
