package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"swapcodes/internal/compiler"
	"swapcodes/internal/harness"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// perfSetupReps is how many set-ups perf_sweep's set-up batch holds.
const perfSetupReps = 50

// perfOp is one (workload, scheme, memory model) cell of the sweep.
type perfOp struct {
	w        int // index into the workload list
	scheme   compiler.Scheme
	sectored bool
}

// sweepSchemes is the union of the Figure 12, 16 and 15 scheme sets, in
// that order without repeats.
func sweepSchemes() []compiler.Scheme {
	var out []compiler.Scheme
	for _, set := range [][]compiler.Scheme{harness.Fig12Schemes(), harness.Fig16Schemes(), harness.Fig15Schemes()} {
		for _, s := range set {
			if !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	return out
}

// expectedSkip reports the cells the compiler is documented to refuse:
// inter-thread duplication on the kernels whose doubled CTA exceeds the
// hardware limit or that use shuffles (mm, snap).
func expectedSkip(workload string, s compiler.Scheme) bool {
	inter := s == compiler.InterThread || s == compiler.InterThreadNoCheck
	return inter && (workload == "mm" || workload == "snap")
}

// perfState is perf_sweep's input: the workloads and the shuffled cells.
type perfState struct {
	all     []*workloads.Workload
	schemes []compiler.Scheme // flat sweep schemes (Baseline excluded)
	ops     []perfOp

	// Traced launch seconds summed over passes: the sectored cells, and
	// the flat launches of the same (workload, scheme) cells.
	flatLaunch, sectLaunch float64
}

func newPerfState(b *bench) *perfState {
	st := &perfState{all: workloads.All(), schemes: sweepSchemes()}
	for i := range st.all {
		for _, s := range append([]compiler.Scheme{compiler.Baseline}, st.schemes...) {
			st.ops = append(st.ops, perfOp{w: i, scheme: s})
		}
		for _, s := range append([]compiler.Scheme{compiler.Baseline}, harness.Fig12Schemes()...) {
			st.ops = append(st.ops, perfOp{w: i, scheme: s, sectored: true})
		}
	}
	rng := newRand(b.seed)
	rng.Shuffle(len(st.ops), func(i, j int) { st.ops[i], st.ops[j] = st.ops[j], st.ops[i] })
	return st
}

// perfPass accumulates one pass's results.
type perfPass struct {
	flat, sectored *harness.PerfResult
	counts         map[string]int64
}

func newPerfResult(all []*workloads.Workload, schemes []compiler.Scheme) *harness.PerfResult {
	res := &harness.PerfResult{Schemes: schemes}
	for _, w := range all {
		res.Rows = append(res.Rows, &harness.PerfRow{Workload: w.Name,
			Stats: make(map[compiler.Scheme]*sm.Stats), Errs: make(map[compiler.Scheme]string)})
	}
	return res
}

func runPerfSweep(b *bench) error {
	// Set-up: the workloads, the shuffled cells, and every workload's
	// inputs under both memory models.
	var st *perfState
	if err := b.setup(perfSetupReps, func() error {
		st = newPerfState(b)
		sect := sm.DefaultConfig()
		sect.MemModel = "sectored"
		for _, w := range st.all {
			w.NewGPU(sm.DefaultConfig())
			w.NewGPU(sect)
		}
		return nil
	}); err != nil {
		return err
	}
	ctx := context.Background()
	err := b.measure(func(pass int) error {
		pp := &perfPass{
			flat:     newPerfResult(st.all, st.schemes),
			sectored: newPerfResult(st.all, harness.Fig12Schemes()),
			counts:   make(map[string]int64),
		}
		for i, o := range st.ops {
			b.op(func() error { return st.launch(ctx, b, pp, o, int32(i)) })
		}
		root := b.tr.start("harness.render", -1, -1)
		text := pp.flat.Render("Figures 12/15/16: slowdown over baseline") +
			harness.CPIStacks(pp.flat).Render("CPI stacks") +
			harness.MemCPI(pp.sectored).Render("Memory CPI stacks")
		b.tr.stop(root)
		sum := sha256.Sum256([]byte(text))
		b.guard(pass, pp.counts, hex.EncodeToString(sum[:]))
		return nil
	})
	if err != nil {
		return err
	}
	st.report(b)
	return nil
}

// launch is one operation: compile, allocate, launch and verify one cell.
func (st *perfState) launch(ctx context.Context, b *bench, pp *perfPass, o perfOp, opID int32) error {
	w := st.all[o.w]
	root := b.tr.start("perf.op", -1, opID)
	defer b.tr.stop(root)

	sp := b.tr.start("compiler.apply", root, opID)
	k, err := compiler.Apply(w.Kernel, o.scheme)
	b.tr.stop(sp)
	pp.counts["compiler.apply_n"]++
	res := pp.flat
	if o.sectored {
		res = pp.sectored
	}
	row := res.Rows[o.w]
	if err != nil {
		row.Errs[o.scheme] = err.Error()
		if expectedSkip(w.Name, o.scheme) {
			pp.counts["compiler.skip_n"]++
			return fmt.Errorf("%s/%v: %w: %v", w.Name, o.scheme, errSkip, err)
		}
		return fmt.Errorf("%s/%v: compile: %w", w.Name, o.scheme, err)
	}

	cfg := sm.DefaultConfig()
	name := "sm.launch_flat"
	if o.sectored {
		cfg.MemModel = "sectored"
		name = "sm.launch_sectored"
	}
	sp = b.tr.start("sm.new_gpu", root, opID)
	g := w.NewGPU(cfg)
	b.tr.stop(sp)
	sp = b.tr.start(name, root, opID)
	stats, err := g.LaunchContext(ctx, k)
	d := b.tr.stop(sp)
	if err != nil {
		return fmt.Errorf("%s/%v: launch: %w", w.Name, o.scheme, err)
	}
	if o.sectored {
		st.sectLaunch += d
	} else if o.scheme == compiler.Baseline || slices.Contains(harness.Fig12Schemes(), o.scheme) {
		st.flatLaunch += d
	}

	sp = b.tr.start("workloads.verify", root, opID)
	err = w.Verify(g)
	b.tr.stop(sp)
	if err != nil {
		return fmt.Errorf("%s/%v: output: %w", w.Name, o.scheme, err)
	}
	if sum := stats.CPIStack(w.Name, o.scheme.String()).Sum(); sum != stats.Cycles {
		return fmt.Errorf("%s/%v: CPI stack sums to %d, launch took %d cycles", w.Name, o.scheme, sum, stats.Cycles)
	}

	if o.scheme == compiler.Baseline {
		row.Baseline = stats
	} else {
		row.Stats[o.scheme] = stats
	}
	pp.counts["sm.launch_n"]++
	pp.counts["sm.cycles"] += stats.Cycles
	pp.counts["sm.warp_instrs"] += stats.DynWarpInstrs
	if m := stats.Mem; m != nil {
		pp.counts["memmodel.load_sectors"] += m.LoadSectors
		pp.counts["memmodel.store_sectors"] += m.StoreSectors
		pp.counts["memmodel.l1_hits"] += m.L1Hits
		pp.counts["memmodel.mshr_full_n"] += m.MSHRFullEvents
	}
	return nil
}

// report fills perf_sweep's per-layer metrics: counts from the first
// pass, times per pass from the spans.
func (st *perfState) report(b *bench) {
	c := b.counts
	for _, k := range []string{"sm.launch_n", "sm.cycles", "sm.warp_instrs", "memmodel.load_sectors",
		"memmodel.mshr_full_n", "compiler.apply_n", "compiler.skip_n"} {
		b.layer[k] = float64(c[k])
	}
	if c["memmodel.load_sectors"] > 0 {
		b.layer["memmodel.l1_hit_frac"] = float64(c["memmodel.l1_hits"]) / float64(c["memmodel.load_sectors"])
	}
	b.layer["sim_mwinstr_per_s"] = float64(c["sm.warp_instrs"]) / 1e6 / b.medianWall()
	if b.tr == nil {
		return
	}
	b.layerSelf(map[string]string{
		"sm.launch_flat": "sm.launch_flat_s", "sm.launch_sectored": "sm.launch_sectored_s",
		"sm.new_gpu": "sm.new_gpu_s", "compiler.apply": "compiler.apply_s",
		"workloads.verify": "workloads.verify_s", "harness.render": "harness.render_s",
	})
	b.layer["memmodel.service_s"] = b.perPass(st.sectLaunch-st.flatLaunch) * b.granted()
	if n := c["sm.warp_instrs"]; n > 0 {
		launch := b.layer["sm.launch_flat_s"] + b.layer["sm.launch_sectored_s"]
		b.layer["sm.ns_per_winstr"] = 1e9 * launch / float64(n)
	}
}
