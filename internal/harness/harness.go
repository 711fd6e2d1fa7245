// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (Section IV-VI): performance sweeps over
// the workload suite (Figures 12, 15, 16), dynamic instruction breakdowns
// (Figure 13), power/energy estimation (Figure 14), gate-level error
// injection campaigns (Figures 10, 11), and the hardware-overhead and
// qualitative tables (Tables I-IV). Every computed artifact is a method of
// a Session (session.go), which computes each launch and campaign the
// artifacts share exactly once.
package harness

import (
	"fmt"
	"strings"

	"swapcodes/internal/compiler"
	"swapcodes/internal/sm"
)

// Fig12Schemes are the protection schemes of Figure 12.
func Fig12Schemes() []compiler.Scheme {
	return []compiler.Scheme{compiler.SWDup, compiler.SwapECC,
		compiler.SwapPredictAddSub, compiler.SwapPredictMAD}
}

// Fig16Schemes are the projected future-predictor organizations.
func Fig16Schemes() []compiler.Scheme {
	return []compiler.Scheme{compiler.SwapPredictMAD, compiler.SwapPredictOtherFxP,
		compiler.SwapPredictFpAddSub, compiler.SwapPredictFpMAD}
}

// Fig15Schemes are the inter-thread duplication variants.
func Fig15Schemes() []compiler.Scheme {
	return []compiler.Scheme{compiler.InterThread, compiler.InterThreadNoCheck}
}

// Options carries sweep-wide simulator knobs that select no experiment.
type Options struct {
	// SMWorkers is passed to sm.Config.Workers for every launch: the number
	// of goroutines the SM's scheduler partitions may use. Results are
	// bit-identical at any value (internal/sm differential tests), so this
	// is purely a wall-clock knob.
	SMWorkers int
	// FlightRecord arms a simprof flight recorder on every launch. On a
	// launch or verification failure the run's error is wrapped in a
	// *FlightError carrying the JSONL black-box bundle. Near-zero cost
	// while nothing fails (fixed rings, no I/O), so servers leave it on.
	FlightRecord bool
	// MemModel is passed to sm.Config.MemModel for every launch: "" or
	// "off" keeps the seed flat-latency timing, "sectored" arms the
	// L1/MSHR/L2/DRAM hierarchy and populates the mem.* CPI components.
	// Functional results are identical either way; only timing moves.
	MemModel string
	// Verify checks every launch's output against the workload's
	// reference (workloads.Workload.Verify); a mismatch fails the artifact.
	// Verification reads device memory only, so Stats are the same either
	// way.
	Verify bool
}

func (o Options) smConfig() sm.Config {
	cfg := sm.DefaultConfig()
	cfg.Workers = o.SMWorkers
	cfg.MemModel = o.MemModel
	return cfg
}

// PerfRow holds one workload's results across schemes.
type PerfRow struct {
	Workload string
	Baseline *sm.Stats
	Stats    map[compiler.Scheme]*sm.Stats
	Errs     map[compiler.Scheme]string
}

// Slowdown returns the fractional slowdown of a scheme over baseline (0.21
// = 21%), or NaN-free -1 when the scheme failed on this workload.
func (r *PerfRow) Slowdown(s compiler.Scheme) float64 {
	st, ok := r.Stats[s]
	if !ok {
		return -1
	}
	return float64(st.Cycles-r.Baseline.Cycles) / float64(r.Baseline.Cycles)
}

// PerfResult is a full performance sweep.
type PerfResult struct {
	Schemes []compiler.Scheme
	Rows    []*PerfRow
}

// MeanSlowdown is the arithmetic-mean slowdown over the workloads where the
// scheme ran (the paper's "arithmetic mean slowdown").
func (r *PerfResult) MeanSlowdown(s compiler.Scheme) float64 {
	sum, n := 0.0, 0
	for _, row := range r.Rows {
		if sd := row.Slowdown(s); sd >= -0.5 && row.Stats[s] != nil {
			sum += sd
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WorstSlowdown returns the maximum slowdown and the workload it occurs on.
func (r *PerfResult) WorstSlowdown(s compiler.Scheme) (float64, string) {
	worst, name := -1.0, ""
	for _, row := range r.Rows {
		if row.Stats[s] == nil {
			continue
		}
		if sd := row.Slowdown(s); sd > worst {
			worst, name = sd, row.Workload
		}
	}
	return worst, name
}

// Render prints a slowdown table.
func (r *PerfResult) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-9s", "program")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %12.12s", s.String())
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s", row.Workload)
		for _, s := range r.Schemes {
			if _, bad := row.Errs[s]; bad {
				fmt.Fprintf(&b, " %12s", "fails")
				continue
			}
			fmt.Fprintf(&b, " %11.1f%%", 100*row.Slowdown(s))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-9s", "MEAN")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %11.1f%%", 100*r.MeanSlowdown(s))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-9s", "WORST")
	for _, s := range r.Schemes {
		sd, name := r.WorstSlowdown(s)
		fmt.Fprintf(&b, " %5.0f%%(%s)", 100*sd, shorten(name, 5))
	}
	b.WriteString("\n")
	return b.String()
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
