package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"swapcodes/internal/arith"
	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
	"swapcodes/internal/sm"
	"swapcodes/internal/trace"
	"swapcodes/internal/workloads"
)

// campaignTuples is the paper's per-unit campaign size.
const campaignTuples = 10000

// campaignSetupReps is how many set-ups fault_campaign's set-up batch holds.
const campaignSetupReps = 50

// injectionSources are the traced workloads of the Figure 10/11 campaign:
// the 13 Rodinia-class programs and SNAP, in suite order (every workload
// but mm).
func injectionSources(all []*workloads.Workload) []*workloads.Workload {
	var out []*workloads.Workload
	for _, w := range all {
		if w.Name != "mm" {
			out = append(out, w)
		}
	}
	return out
}

// collectOperands traces the source workloads one at a time, each under its
// own tracer, and merges the traces in suite order.
func collectOperands(ctx context.Context, sources []*workloads.Workload, limit int) (*trace.OperandTrace, error) {
	merged := trace.NewOperandTrace(limit)
	for _, w := range sources {
		tr := trace.NewOperandTrace(limit)
		g := w.NewGPU(sm.DefaultConfig())
		g.Trace = tr.Func(8) // lowest 8 lanes per warp, as the paper traces
		if _, err := g.LaunchContext(ctx, w.Kernel); err != nil {
			return nil, fmt.Errorf("trace %s: %w", w.Name, err)
		}
		merged.Merge(tr)
	}
	return merged, nil
}

func runFaultCampaign(b *bench) error {
	// Set-up: the source workloads and their inputs, and the units.
	var sources []*workloads.Workload
	if err := b.setup(campaignSetupReps, func() error {
		sources = injectionSources(workloads.All())
		for _, w := range sources {
			w.NewGPU(sm.DefaultConfig())
		}
		arith.Units()
		return nil
	}); err != nil {
		return err
	}
	ctx := context.Background()
	pool := engine.New(1)
	var tuplesDone int64
	err := b.measure(func(pass int) error {
		sp := b.tr.start("trace.collect", -1, -1)
		tr, err := collectOperands(ctx, sources, campaignTuples)
		b.tr.stop(sp)
		if err != nil {
			return err
		}
		// Fresh units every campaign: cones and cone statistics are memoized
		// per circuit, and a command-line campaign builds them every time.
		sp = b.tr.start("arith.units", -1, -1)
		units := arith.Units()
		b.tr.stop(sp)
		plan := harness.PlanInjection(units, tr, campaignTuples, b.seed)
		shards := make([]harness.ShardResult, len(plan.Shards()))
		for j := range shards {
			b.op(func() error {
				sp := b.tr.start("faultsim.shard", -1, int32(j))
				defer b.tr.stop(sp)
				out, err := plan.RunShard(ctx, pool, j)
				shards[j] = out
				return err
			})
		}
		res := plan.Assemble(shards, 0)

		sp = b.tr.start("gates.cone_stats", -1, -1)
		for _, u := range units {
			u.ConeStats()
		}
		b.tr.stop(sp)
		sp = b.tr.start("harness.render", -1, -1)
		text := res.RenderFig10() + res.RenderFig11() + res.RenderConeStats()
		b.tr.stop(sp)

		counts := map[string]int64{"faultsim.shard_n": int64(len(shards))}
		for unit, n := range tr.Counts() {
			counts["trace.operands"] += int64(n)
			counts["trace.operands."+unit] = int64(n)
		}
		for _, u := range res.Units {
			ev := u.Evals
			counts["faultsim.injections"] += int64(len(u.Injections))
			counts["faultsim.injections."+u.Unit.Name] = int64(len(u.Injections))
			counts["faultsim.tuples"] += ev.Tuples
			counts["gates.site_evals"] += ev.SiteEvals
			counts["gates.cone_nodes"] += ev.ConeNodes
			counts["gates.full_nodes"] += ev.SiteEvals * int64(ev.NetNodes)
		}
		sum := sha256.Sum256([]byte(text))
		b.guard(pass, counts, hex.EncodeToString(sum[:]))
		tuplesDone = counts["faultsim.tuples"]
		return nil
	})
	if err != nil {
		return err
	}

	c := b.counts
	for _, k := range []string{"trace.operands", "faultsim.shard_n", "faultsim.injections",
		"gates.site_evals", "gates.cone_nodes"} {
		b.layer[k] = float64(c[k])
	}
	if c["gates.full_nodes"] > 0 {
		b.layer["gates.reeval_frac"] = float64(c["gates.cone_nodes"]) / float64(c["gates.full_nodes"])
	}
	b.layer["tuples_per_s"] = float64(tuplesDone) / b.medianWall()
	if b.tr != nil {
		b.layerSelf(map[string]string{
			"trace.collect": "trace.collect_s", "arith.units": "arith.units_s",
			"faultsim.shard": "faultsim.shard_s", "gates.cone_stats": "gates.cone_stats_s",
			"harness.render": "harness.render_s",
		})
	}
	return nil
}
