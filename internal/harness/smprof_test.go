package harness

import (
	"context"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
)

// TestRunSMProf runs the attribution sweep on a two-scheme slice and checks
// the rows are internally consistent: every workload appears, deterministic
// counters are populated, wall attribution is present, and the derived
// fractions are sane.
func TestRunSMProf(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	res, err := NewSession(engine.New(1), Options{SMWorkers: 2}).SMProf(context.Background(),
		[]compiler.Scheme{compiler.SwapECC})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Fatalf("workers = %d, want 2", res.Workers)
	}
	// 15 workloads x {baseline, swap-ecc}.
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(res.Rows))
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[r.Workload+"/"+r.Scheme] = true
		if r.Cycles <= 0 || r.Rounds <= 0 {
			t.Errorf("%s/%s: empty profile: %+v", r.Workload, r.Scheme, r)
		}
		if r.SerialFrac < 0 || r.SerialFrac > 1 {
			t.Errorf("%s/%s: serial fraction %v outside [0,1]", r.Workload, r.Scheme, r.SerialFrac)
		}
		if r.Imbalance < 1 {
			t.Errorf("%s/%s: imbalance %v < 1 (max/mean cannot undershoot the mean)",
				r.Workload, r.Scheme, r.Imbalance)
		}
		if r.SkippedCycles < 0 || r.SkippedCycles >= r.Cycles {
			t.Errorf("%s/%s: skipped %d of %d cycles", r.Workload, r.Scheme, r.SkippedCycles, r.Cycles)
		}
		if r.IdleRounds > r.Rounds {
			t.Errorf("%s/%s: idle rounds %d exceed rounds %d", r.Workload, r.Scheme, r.IdleRounds, r.Rounds)
		}
	}
	if !seen["lavaMD/baseline"] || !seen["mm/swap-ecc"] {
		t.Fatalf("expected rows missing: %v", seen)
	}

	table := res.Render("attribution")
	for _, want := range []string{"workers=2", "lavaMD", "swap-ecc", "MEAN serial fraction"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := res.CSV()
	if lines := strings.Count(csv, "\n"); lines != 31 { // header + 30 rows
		t.Errorf("CSV has %d lines, want 31", lines)
	}
	if !strings.HasPrefix(csv, "workload,scheme,workers,cycles,rounds,") {
		t.Errorf("CSV header changed: %s", csv[:60])
	}
}

func TestSMProfRowDerived(t *testing.T) {
	r := &SMProfRow{Cycles: 1000, SkippedCycles: 250, SerialFrac: 0.2}
	if got := r.SkipPct(); got != 25 {
		t.Errorf("SkipPct = %v, want 25", got)
	}
	if got := r.AmdahlBound(); got != 5 {
		t.Errorf("AmdahlBound = %v, want 5", got)
	}
	zero := &SMProfRow{}
	if zero.SkipPct() != 0 {
		t.Error("zero-cycle SkipPct should be 0")
	}
}
