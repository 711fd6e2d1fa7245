package harness

import (
	"context"
	"fmt"
	"strings"

	"swapcodes/internal/compiler"
	"swapcodes/internal/ecc"
)

// HeadlineRow is one paper claim with its measured value.
type HeadlineRow struct {
	Claim    string
	Paper    string
	Measured string
}

// Headline is the paper's headline claims with their measured values (the
// table EXPERIMENTS.md freezes) — the fastest way to check the whole
// artifact. It reads the session's flat-latency Figure 12, 15 and Fp-MAD
// launches, its Figure 14 power estimate and its injection campaign of
// `tuples` per unit, computing whichever of them no other artifact of the
// session has yet.
func (s *Session) Headline(ctx context.Context, tuples int, seed int64) ([]HeadlineRow, error) {
	flat := s.WithMemModel("")
	perf, err := flat.Perf(ctx, Fig12Schemes())
	if err != nil {
		return nil, err
	}
	mix := RunCodeMix(perf)
	inj, err := s.Injection(ctx, tuples, seed)
	if err != nil {
		return nil, err
	}
	pwr, err := s.Power(ctx)
	if err != nil {
		return nil, err
	}
	inter, err := flat.Perf(ctx, Fig15Schemes())
	if err != nil {
		return nil, err
	}
	fp, err := flat.Perf(ctx, []compiler.Scheme{compiler.SwapPredictFpMAD})
	if err != nil {
		return nil, err
	}

	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	worst := func(p *PerfResult, s compiler.Scheme) string {
		w, name := p.WorstSlowdown(s)
		return fmt.Sprintf("%.0f%% (%s)", 100*w, name)
	}
	lo, hi := mix.CheckingBloatRange()

	rows := []HeadlineRow{
		{"SW-Dup mean slowdown", "49%", pct(perf.MeanSlowdown(compiler.SWDup))},
		{"SW-Dup worst case", "99% (b+tree)", worst(perf, compiler.SWDup)},
		{"Swap-ECC mean slowdown", "21%", pct(perf.MeanSlowdown(compiler.SwapECC))},
		{"Swap-ECC worst case", "78% (lavaMD)", worst(perf, compiler.SwapECC)},
		{"Pre AddSub mean slowdown", "16%", pct(perf.MeanSlowdown(compiler.SwapPredictAddSub))},
		{"Pre MAD mean slowdown", "15%", pct(perf.MeanSlowdown(compiler.SwapPredictMAD))},
		{"Pre MAD worst case", "74% (lavaMD)", worst(perf, compiler.SwapPredictMAD)},
		{"SW-Dup instruction bloat", "91%", pct(mix.MeanBloat(compiler.SWDup))},
		{"Swap-ECC instruction bloat", "63%", pct(mix.MeanBloat(compiler.SwapECC))},
		{"Pre MAD instruction bloat", "33%", pct(mix.MeanBloat(compiler.SwapPredictMAD))},
		{"Checking-code bloat range", "11%..35%", fmt.Sprintf("%.0f%%..%.0f%%", 100*lo, 100*hi)},
		{"Detection coverage, SEC-DED", ">98.8%", pct(inj.DetectionCoverage(ecc.NewSECDEDDP()))},
		{"Detection coverage, Mod-127", ">99.3%", pct(inj.DetectionCoverage(ecc.NewResidue(7)))},
		{"Mod-3 SDC risk", "<5%", func() string { f, _ := inj.PooledSDC(ecc.NewResidue(2)); return pct(f) }()},
		{"Worst power overhead", "<=15%", pct(pwr.MaxRelPower() - 1)},
		{"Inter-thread mean slowdown", "113%", pct(inter.MeanSlowdown(compiler.InterThread))},
		{"Inter-thread no-check mean", "57%", pct(inter.MeanSlowdown(compiler.InterThreadNoCheck))},
		{"Fp-MAD projection mean", "5%", pct(fp.MeanSlowdown(compiler.SwapPredictFpMAD))},
	}
	return rows, nil
}

// RenderHeadline prints the claim table.
func RenderHeadline(rows []HeadlineRow) string {
	var b strings.Builder
	b.WriteString("Headline claims: paper vs this reproduction\n")
	fmt.Fprintf(&b, "%-34s %-14s %s\n", "claim", "paper", "measured")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %-14s %s\n", r.Claim, r.Paper, r.Measured)
	}
	return b.String()
}
