package faultsim

import (
	"fmt"

	"swapcodes/internal/obs"
)

// RecordShard folds one completed campaign shard into a recorder: a span on
// the "faultsim" trace process covering the shard's wall time, cumulative
// outcome samples, and the campaign-wide registry instruments
// (faultsim.tuples, faultsim.unmasked, per-severity counters, the
// attempts-per-unmasked histogram that captures the masking rate, and the
// incremental-evaluator work counters that capture the cone speedup). A nil
// recorder records nothing, so shard execution stays observability-free by
// default. startUS is rec.Now() taken before the shard ran. tc carries the
// request-scoped trace identity of the job the shard ran on behalf of (zero
// for CLI-local runs); its fields land in the span args so a Chrome trace
// export joins shard execution to the submitting job by trace_id.
func RecordShard(rec *obs.Recorder, tc obs.TraceContext, unit string, shard int, startUS int64, tuples int, inj []Injection, st EvalStats) {
	if rec == nil {
		return
	}
	reg := rec.Registry()
	// Registry instruments are labeled per injected unit (DESIGN.md section
	// 8); campaign-wide totals come from Registry.SumCounters on the base
	// name, not from a parallel unlabeled instrument (which would double
	// count every tuple).
	kv := []string{"unit", unit}
	reg.Counter(obs.Name("faultsim.tuples", kv...)).Add(int64(tuples))
	reg.Counter(obs.Name("faultsim.unmasked", kv...)).Add(int64(len(inj)))
	// Incremental-evaluator accounting: baseline_nodes is snapshot work,
	// cone_nodes sums the static cone sizes of the drawn sites (an upper
	// bound on the event-driven re-evaluation work), site_evals counts
	// attempts. The campaign-wide re-eval fraction is
	// cone_nodes / (site_evals × netlist nodes); per-shard the same ratio
	// lands in the reeval_pct histogram, and cone_mean_nodes tracks the
	// mean cone size the site draws actually hit.
	reg.Counter(obs.Name("faultsim.baseline_nodes", kv...)).Add(st.BaselineNodes)
	reg.Counter(obs.Name("faultsim.cone_nodes", kv...)).Add(st.ConeNodes)
	reg.Counter(obs.Name("faultsim.site_evals", kv...)).Add(st.SiteEvals)
	if st.SiteEvals > 0 {
		reg.Histogram(obs.Name("faultsim.cone_mean_nodes", kv...), obs.ExpBounds(16, 14)...).
			Observe(st.ConeNodes / st.SiteEvals)
		reg.Histogram(obs.Name("faultsim.reeval_pct", kv...), obs.ExpBounds(1, 8)...).
			Observe(int64(100 * st.ReEvalFrac()))
	}
	attempts := reg.Histogram(obs.Name("faultsim.attempts_per_unmasked", kv...), obs.ExpBounds(1, 10)...)
	var sev [3]int64
	for _, in := range inj {
		attempts.Observe(int64(in.Attempts))
		sev[in.SeverityOf()]++
	}
	reg.Counter(obs.Name("faultsim.sev_1bit", kv...)).Add(sev[OneBit])
	reg.Counter(obs.Name("faultsim.sev_2_3bit", kv...)).Add(sev[TwoToThreeBits])
	reg.Counter(obs.Name("faultsim.sev_4plus", kv...)).Add(sev[FourPlusBits])

	pid := rec.Process("faultsim")
	now := rec.Now()
	rec.Span(pid, rec.NextTID(), fmt.Sprintf("%s/shard%d", unit, shard), "shard", startUS, now-startUS,
		tc.Args(map[string]any{"tuples": tuples, "unmasked": len(inj), "reeval_frac": st.ReEvalFrac()}))
	// Cumulative tallies: the stacked series shows outcome mix drifting (or
	// not) as the campaign progresses across the operand stream.
	rec.Sample(pid, "faultsim.outcomes", now, map[string]any{
		"1bit":  reg.SumCounters("faultsim.sev_1bit"),
		"2-3":   reg.SumCounters("faultsim.sev_2_3bit"),
		"4plus": reg.SumCounters("faultsim.sev_4plus"),
	})
}
