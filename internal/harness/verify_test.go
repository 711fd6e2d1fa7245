package harness

import (
	"context"
	"strings"
	"testing"

	"swapcodes/internal/engine"
	"swapcodes/internal/verify"
	"swapcodes/internal/workloads"
)

// TestRunVerifySweep drives the differential verifier over every workload
// on the reduced matrix (the full 68-combo sweep is the internal/verify
// acceptance test; here the driver plumbing is under test).
func TestRunVerifySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the workload suite across the short matrix")
	}
	combos := verify.ShortMatrix()
	res, err := NewSession(engine.New(0), Options{}).Verify(context.Background(), combos)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), len(workloads.All()); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d failing cells:\n%s", n, res.Render("verify"))
	}
	out := res.Render("verify sweep")
	if !strings.Contains(out, "verified") {
		t.Errorf("render missing pass summary:\n%s", out)
	}
	for _, row := range res.Rows {
		if row.Passed+row.Skipped != len(combos) {
			t.Errorf("%s: passed %d + skipped %d != %d combos",
				row.Workload, row.Passed, row.Skipped, len(combos))
		}
	}
}

// TestVerifyRenderFailures checks the failure branch of Render without
// running a simulation.
func TestVerifyRenderFailures(t *testing.T) {
	res := &VerifyResult{Combos: 2, Rows: []*VerifyRow{
		{Workload: "mm", Passed: 1, Failures: []string{"swap-ecc+dce: memory mismatch"}},
	}}
	if res.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", res.Failed())
	}
	out := res.Render("t")
	if !strings.Contains(out, "FAILING") || !strings.Contains(out, "memory mismatch") {
		t.Errorf("failure details missing:\n%s", out)
	}
}
