package harness

import (
	"fmt"
	"strings"

	"swapcodes/internal/arith"
	"swapcodes/internal/ecc"
	"swapcodes/internal/faultsim"
)

// UnitInjection is one arithmetic unit's campaign outcome.
type UnitInjection struct {
	Unit       *arith.Unit
	Injections []faultsim.Injection
	// Evals pools the evaluator work counters of the unit's shards: the
	// static fan-out cone nodes of the drawn sites versus what a naive
	// whole-netlist evaluation would have cost.
	Evals faultsim.EvalStats
}

// SeverityFrac returns the fraction (and Wilson 95% CI) of unmasked errors
// in the given Figure 10 bucket.
func (u *UnitInjection) SeverityFrac(sev faultsim.Severity) (frac, lo, hi float64) {
	c := faultsim.SeverityCounts(u.Injections, sev)
	if c.N == 0 {
		return 0, 0, 1
	}
	lo, hi = c.Wilson(1.96)
	return c.Frac(), lo, hi
}

// SDCRisk evaluates one register-file code over this unit's injections.
func (u *UnitInjection) SDCRisk(code ecc.Code) (frac, lo, hi float64) {
	c := faultsim.SDCCounts(u.Injections, code, u.Unit.OutputWidth)
	if c.N == 0 {
		return 0, 0, 1
	}
	lo, hi = c.Wilson(1.96)
	return c.Frac(), lo, hi
}

// InjectionResult holds the Figure 10/11 campaign over all six units.
type InjectionResult struct {
	Units  []*UnitInjection
	Tuples int
	// CampaignSeconds is the wall time of the sharded injection phase
	// (excluding operand tracing), the denominator of TuplesPerSec.
	CampaignSeconds float64
}

// TuplesPerSec is the campaign throughput: operand tuples injected across
// all units per second of injection wall time (0 if not measured).
func (r *InjectionResult) TuplesPerSec() float64 {
	if r.CampaignSeconds <= 0 {
		return 0
	}
	var tuples int64
	for _, u := range r.Units {
		tuples += u.Evals.Tuples
	}
	return float64(tuples) / r.CampaignSeconds
}

// Fig11Codes returns the register-file error codes evaluated in Figure 11,
// weakest to strongest.
func Fig11Codes() []ecc.Code {
	codes := []ecc.Code{ecc.Parity{}}
	for _, r := range ecc.ResidueSet() {
		codes = append(codes, r)
	}
	codes = append(codes, ecc.NewTED(), ecc.NewSECDEDDP(), ecc.NewSECDP())
	return codes
}

// RenderFig10 prints the severity-pattern table.
func (r *InjectionResult) RenderFig10() string {
	var b strings.Builder
	b.WriteString("Figure 10: severity of unmasked transient errors (fraction of injections, 95% CI)\n")
	fmt.Fprintf(&b, "%-10s %22s %22s %22s\n", "unit", "1 bit", "2-3 bits", ">=4 bits")
	for _, u := range r.Units {
		fmt.Fprintf(&b, "%-10s", u.Unit.Name)
		for _, sev := range []faultsim.Severity{faultsim.OneBit, faultsim.TwoToThreeBits, faultsim.FourPlusBits} {
			f, lo, hi := u.SeverityFrac(sev)
			fmt.Fprintf(&b, "  %5.1f%% [%5.1f,%5.1f]", 100*f, 100*lo, 100*hi)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig11 prints the SDC-risk table: per unit and per code, plus the
// pooled all-units risk the paper's headline coverage numbers come from.
func (r *InjectionResult) RenderFig11() string {
	codes := Fig11Codes()
	var b strings.Builder
	b.WriteString("Figure 11: SwapCodes SDC risk by register-file code (%, 95% CI upper bound in parens)\n")
	fmt.Fprintf(&b, "%-10s", "unit")
	for _, c := range codes {
		fmt.Fprintf(&b, " %14.14s", c.Name())
	}
	b.WriteString("\n")
	for _, u := range r.Units {
		fmt.Fprintf(&b, "%-10s", u.Unit.Name)
		for _, c := range codes {
			f, _, hi := u.SDCRisk(c)
			fmt.Fprintf(&b, "  %5.2f%%(%5.2f)", 100*f, 100*hi)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-10s", "ALL")
	for _, c := range codes {
		f, hi := r.PooledSDC(c)
		fmt.Fprintf(&b, "  %5.2f%%(%5.2f)", 100*f, 100*hi)
	}
	b.WriteString("\n")
	return b.String()
}

// RenderConeStats prints the incremental-evaluator accounting: the
// structural cone statistics of each unit and the static-cone fraction of
// the campaign's actual site draws (gates.EvalCounters.ConeNodes).
// Everything here is a deterministic function of (tuples, seed) —
// wall-clock throughput is deliberately excluded so figure output stays
// byte-identical across worker counts (see RenderThroughput for the timing
// line).
func (r *InjectionResult) RenderConeStats() string {
	var b strings.Builder
	b.WriteString("Incremental fault evaluation: fan-out cone statistics and measured re-eval cost\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %10s %9s %10s %11s\n",
		"unit", "nodes", "sites", "mean cone", "max cone", "cone frac", "reeval frac")
	for _, u := range r.Units {
		st := u.Unit.ConeStats()
		fmt.Fprintf(&b, "%-10s %8d %8d %10.1f %9d %9.1f%% %10.1f%%\n",
			u.Unit.Name, st.NetNodes, st.Sites, st.MeanCone, st.MaxCone,
			100*st.MeanFrac, 100*u.Evals.ReEvalFrac())
	}
	return b.String()
}

// RenderThroughput is the campaign's wall-clock summary — timing, so it
// belongs on stderr with the experiment timers, never in figure output.
func (r *InjectionResult) RenderThroughput() string {
	if tps := r.TuplesPerSec(); tps > 0 {
		return fmt.Sprintf("campaign throughput: %.0f tuples/s over %.2fs of injection",
			tps, r.CampaignSeconds)
	}
	return ""
}

// PooledSDC aggregates SDC risk across all units (equal weight per
// injection) and returns the fraction and Wilson upper bound. The pooling
// is a faultsim.Counts merge — the same order-independent count pooling the
// sharded campaigns rely on.
func (r *InjectionResult) PooledSDC(code ecc.Code) (frac, hi float64) {
	var pooled faultsim.Counts
	for _, u := range r.Units {
		pooled = pooled.Merge(faultsim.SDCCounts(u.Injections, code, u.Unit.OutputWidth))
	}
	if pooled.N == 0 {
		return 0, 1
	}
	_, hi = pooled.Wilson(1.96)
	return pooled.Frac(), hi
}

// DetectionCoverage is 1 - pooled SDC risk: the paper's ">99.3% of pipeline
// errors with an equal-redundancy residue code / >98.8% with SEC-DED".
func (r *InjectionResult) DetectionCoverage(code ecc.Code) float64 {
	f, _ := r.PooledSDC(code)
	return 1 - f
}
