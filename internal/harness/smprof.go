package harness

// The smprof experiment: an Amdahl attribution report for the partitioned
// SM (DESIGN.md Sections 13-14). Every workload x scheme launch runs with a
// simprof.LaunchProf armed, and the report partitions its wall time into
// the parallel phase A, the serial merge barrier, and the idle-skip
// savings — the numbers that say where the round loop's speedup ceiling
// actually sits per program.

import (
	"context"
	"fmt"
	"math"
	"strings"

	"swapcodes/internal/compiler"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/workloads"
)

// SMProfRow is one workload x scheme attribution row.
type SMProfRow struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// Deterministic simulator-side counters (identical at any worker count).
	Cycles        int64 `json:"cycles"`
	Rounds        int64 `json:"rounds"`
	IdleRounds    int64 `json:"idle_rounds"`
	SkippedCycles int64 `json:"skipped_cycles"`
	// Host-side wall attribution for this run (microseconds).
	PhaseAUS int64 `json:"phase_a_us"`
	MergeUS  int64 `json:"merge_us"`
	// SerialFrac is merge wall over total loop wall (Amdahl's serial s).
	SerialFrac float64 `json:"serial_frac"`
	// Imbalance is max/mean issued instructions across partitions.
	Imbalance float64 `json:"imbalance"`
}

// SkipPct is the fraction of simulated cycles the batch idle-skip never
// simulated round-by-round, in percent.
func (r *SMProfRow) SkipPct() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 100 * float64(r.SkippedCycles) / float64(r.Cycles)
}

// AmdahlBound is the speedup ceiling 1/s implied by the measured serial
// fraction (infinite workers, zero-cost parallelism). +Inf when the merge
// wall was unmeasurably small.
func (r *SMProfRow) AmdahlBound() float64 {
	if r.SerialFrac <= 0 {
		return math.Inf(1)
	}
	return 1 / r.SerialFrac
}

// SMProfResult is a full attribution sweep.
type SMProfResult struct {
	Workers int          `json:"workers"`
	Rows    []*SMProfRow `json:"rows"`
}

// SMProf profiles every workload under baseline plus the given schemes at
// the session's SM worker count. Unlike the perf sweeps, rows run strictly
// serially — one launch at a time on an otherwise idle process — because
// the product is a wall-time partition, and engine-pool contention would
// bleed scheduler noise into exactly the quantity being measured. For the
// same reason nothing here is memoized: every row is a fresh launch.
func (s *Session) SMProf(ctx context.Context, schemes []compiler.Scheme) (*SMProfResult, error) {
	res := &SMProfResult{Workers: s.opt.SMWorkers}
	for _, w := range workloads.All() {
		for _, sc := range append([]compiler.Scheme{compiler.Baseline}, schemes...) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			k, err := compiler.Apply(w.Kernel, sc)
			if err != nil {
				// Scheme inapplicable to this workload (inter-thread on
				// mm/snap); skip the row like the perf sweep does.
				continue
			}
			g := w.NewGPU(s.opt.smConfig())
			prof := &simprof.LaunchProf{}
			g.Prof = prof
			if _, err := g.LaunchContext(ctx, k); err != nil {
				return nil, fmt.Errorf("harness: smprof %s/%v: %w", w.Name, sc, err)
			}
			res.Rows = append(res.Rows, &SMProfRow{
				Workload:      w.Name,
				Scheme:        SchemeName(sc),
				Cycles:        prof.Cycles,
				Rounds:        prof.Rounds,
				IdleRounds:    prof.IdleRounds,
				SkippedCycles: prof.SkippedCycles,
				PhaseAUS:      prof.PhaseAWall.Microseconds(),
				MergeUS:       prof.MergeWall.Microseconds(),
				SerialFrac:    prof.SerialFrac(),
				Imbalance:     prof.LoadImbalance(),
			})
		}
	}
	return res, nil
}

// MeanSerialFrac is the arithmetic-mean serial fraction across rows.
func (r *SMProfResult) MeanSerialFrac() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range r.Rows {
		sum += row.SerialFrac
	}
	return sum / float64(len(r.Rows))
}

// Render prints the attribution table.
func (r *SMProfResult) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (workers=%d)\n", title, r.Workers)
	fmt.Fprintf(&b, "%-9s %-14s %10s %9s %8s %8s %7s %7s %7s %6s\n",
		"program", "scheme", "cycles", "rounds", "phaseA", "merge", "serial", "amdahl", "skip", "imbal")
	for _, row := range r.Rows {
		amdahl := "inf"
		if bound := row.AmdahlBound(); !math.IsInf(bound, 1) {
			amdahl = fmt.Sprintf("%.1fx", bound)
		}
		fmt.Fprintf(&b, "%-9s %-14s %10d %9d %7dus %7dus %6.1f%% %7s %6.1f%% %6.2f\n",
			row.Workload, row.Scheme, row.Cycles, row.Rounds,
			row.PhaseAUS, row.MergeUS, 100*row.SerialFrac, amdahl,
			row.SkipPct(), row.Imbalance)
	}
	fmt.Fprintf(&b, "MEAN serial fraction %.1f%%\n", 100*r.MeanSerialFrac())
	return b.String()
}

// CSV renders the sweep as machine-readable rows.
func (r *SMProfResult) CSV() string {
	var b strings.Builder
	b.WriteString("workload,scheme,workers,cycles,rounds,idle_rounds,skipped_cycles,phase_a_us,merge_us,serial_frac,imbalance\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%.4f,%.3f\n",
			row.Workload, row.Scheme, r.Workers, row.Cycles, row.Rounds,
			row.IdleRounds, row.SkippedCycles, row.PhaseAUS, row.MergeUS,
			row.SerialFrac, row.Imbalance)
	}
	return b.String()
}
