package harness

import (
	"fmt"
	"sort"
	"strings"

	"swapcodes/internal/compiler"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/isa"
)

// CSV exporters: every figure's data series in a plot-ready form, so the
// paper's charts can be regenerated with any plotting tool.

// CSV renders the performance sweep: workload,scheme,baseline_cycles,
// cycles,slowdown.
func (r *PerfResult) CSV() string {
	var b strings.Builder
	b.WriteString("workload,scheme,baseline_cycles,cycles,slowdown\n")
	for _, row := range r.Rows {
		for _, s := range r.Schemes {
			st, ok := row.Stats[s]
			if !ok {
				fmt.Fprintf(&b, "%s,%s,%d,,fails\n", row.Workload, s, row.Baseline.Cycles)
				continue
			}
			fmt.Fprintf(&b, "%s,%s,%d,%d,%.4f\n",
				row.Workload, s, row.Baseline.Cycles, st.Cycles, row.Slowdown(s))
		}
	}
	return b.String()
}

// CSV renders the Figure 13 breakdown: workload,scheme,category,fraction.
func (m *MixResult) CSV() string {
	var b strings.Builder
	b.WriteString("workload,scheme,category,fraction_of_baseline\n")
	for _, w := range m.Order {
		// Scheme order, not map order: the file must not change between
		// runs.
		var schemes []compiler.Scheme
		for s := range m.Rows[w] {
			schemes = append(schemes, s)
		}
		sort.Slice(schemes, func(i, j int) bool { return schemes[i] < schemes[j] })
		for _, s := range schemes {
			mix := m.Rows[w][s]
			for cat := isa.CatNotEligible; cat <= isa.CatChecking; cat++ {
				fmt.Fprintf(&b, "%s,%s,%s,%.4f\n", w, s, cat, mix.Frac[cat])
			}
		}
	}
	return b.String()
}

// CSV renders the injection campaign: unit,metric,value,ci_lo,ci_hi —
// severity buckets (Figure 10) followed by per-code SDC risks (Figure 11).
func (r *InjectionResult) CSV() string {
	var b strings.Builder
	b.WriteString("unit,metric,value,ci_lo,ci_hi\n")
	for _, u := range r.Units {
		for _, sev := range []faultsim.Severity{faultsim.OneBit, faultsim.TwoToThreeBits, faultsim.FourPlusBits} {
			f, lo, hi := u.SeverityFrac(sev)
			fmt.Fprintf(&b, "%s,severity:%s,%.5f,%.5f,%.5f\n", u.Unit.Name, sev, f, lo, hi)
		}
		for _, code := range Fig11Codes() {
			f, lo, hi := u.SDCRisk(code)
			fmt.Fprintf(&b, "%s,sdc:%s,%.5f,%.5f,%.5f\n", u.Unit.Name, code.Name(), f, lo, hi)
		}
	}
	for _, code := range Fig11Codes() {
		f, hi := r.PooledSDC(code)
		fmt.Fprintf(&b, "ALL,sdc:%s,%.5f,,%.5f\n", code.Name(), f, hi)
	}
	return b.String()
}

// CSV renders the power/energy table.
func (r *PowerResult) CSV() string {
	var b strings.Builder
	b.WriteString("workload,scheme,watts,energy_uj,rel_power,rel_energy\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%.2f,%.2f,%.4f,%.4f\n",
			row.Workload, row.Scheme, row.Watts, row.EnergyUJ, row.RelPower, row.RelEnergy)
	}
	return b.String()
}

// Table4CSV renders the synthesis table.
func Table4CSV(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("unit,bits,stages,ffs,area_nand2,overhead,paper_area\n")
	for _, r := range rows {
		ov := ""
		if r.Overhead >= 0 {
			ov = fmt.Sprintf("%.4f", r.Overhead)
		}
		fmt.Fprintf(&b, "%s,%d,%d,%d,%.1f,%s,%.0f\n",
			r.Unit, r.Bits, r.Stages, r.FFs, r.Area, ov, r.PaperArea)
	}
	return b.String()
}
