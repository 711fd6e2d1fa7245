package verify

import (
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
)

func lintViolations(t *testing.T, k *isa.Kernel, s compiler.Scheme, origMax int) []Violation {
	t.Helper()
	err := Lint(k, s, origMax)
	if err == nil {
		return nil
	}
	var le *LintError
	if !asLintError(err, &le) {
		t.Fatalf("Lint returned %T, want *LintError", err)
	}
	return le.Violations
}

func asLintError(err error, target **LintError) bool {
	le, ok := err.(*LintError)
	if ok {
		*target = le
	}
	return ok
}

func hasRule(vs []Violation, rule, msgFragment string) bool {
	for _, v := range vs {
		if v.Rule == rule && strings.Contains(v.Msg, msgFragment) {
			return true
		}
	}
	return false
}

func exitInstr() isa.Instr {
	return isa.Instr{Op: isa.EXIT, Dst: isa.RZ, Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}, GuardPred: isa.NoPred}
}

// TestLintShadowPairRules exercises R1's three failure modes on hand-built
// Swap-ECC-shaped code: orphan shadow, destination read inside the pair
// window, and source clobber inside the pair window.
func TestLintShadowPairRules(t *testing.T) {
	iadd := func(dst, a, b isa.Reg, flags isa.Flags) isa.Instr {
		return isa.Instr{Op: isa.IADD, Dst: dst, Src: [3]isa.Reg{a, b, isa.RZ},
			GuardPred: isa.NoPred, Flags: flags, Cat: isa.CatDuplicated}
	}
	t.Run("orphan-shadow", func(t *testing.T) {
		k := &isa.Kernel{Name: "orphan", GridCTAs: 1, CTAThreads: 32, NumRegs: 4,
			Code: []isa.Instr{
				iadd(1, 2, 3, isa.FlagShadow), // no original anywhere before it
				exitInstr(),
			}}
		vs := lintViolations(t, k, compiler.SwapECC, 3)
		if !hasRule(vs, "R1", "no in-block original") {
			t.Fatalf("orphan shadow not flagged: %v", vs)
		}
	})
	t.Run("read-between-pair", func(t *testing.T) {
		k := &isa.Kernel{Name: "readbetween", GridCTAs: 1, CTAThreads: 32, NumRegs: 6,
			Code: []isa.Instr{
				iadd(1, 2, 3, 0),
				iadd(4, 1, 3, 0), // reads r1 while its check bits are stale
				iadd(1, 2, 3, isa.FlagShadow),
				exitInstr(),
			}}
		vs := lintViolations(t, k, compiler.SwapECC, 5)
		if !hasRule(vs, "R1", "stale check bits") {
			t.Fatalf("read inside pair window not flagged: %v", vs)
		}
	})
	t.Run("source-clobber-between-pair", func(t *testing.T) {
		k := &isa.Kernel{Name: "clobber", GridCTAs: 1, CTAThreads: 32, NumRegs: 6,
			Code: []isa.Instr{
				iadd(1, 2, 3, 0),
				iadd(2, 4, 4, 0), // rewrites pair source r2
				iadd(1, 2, 3, isa.FlagShadow),
				exitInstr(),
			}}
		vs := lintViolations(t, k, compiler.SwapECC, 5)
		if !hasRule(vs, "R1", "clobbered") {
			t.Fatalf("source clobber inside pair window not flagged: %v", vs)
		}
	})
	t.Run("well-formed-pair-clean", func(t *testing.T) {
		k := &isa.Kernel{Name: "ok", GridCTAs: 1, CTAThreads: 32, NumRegs: 4,
			Code: []isa.Instr{
				iadd(1, 2, 3, 0),
				iadd(1, 2, 3, isa.FlagShadow),
				exitInstr(),
			}}
		if err := Lint(k, compiler.SwapECC, 3); err != nil {
			t.Fatalf("well-formed pair flagged: %v", err)
		}
	})
}

// TestLintShadowSpace exercises R2: a SW-Dup-claimed kernel touching a
// register outside both the primary and shadow windows must be flagged.
func TestLintShadowSpace(t *testing.T) {
	origMax := 7 // shadow window [8, 16]
	k := &isa.Kernel{Name: "space", GridCTAs: 1, CTAThreads: 32, NumRegs: 40,
		Code: []isa.Instr{
			{Op: isa.IADD, Dst: 30, Src: [3]isa.Reg{1, 2, isa.RZ}, GuardPred: isa.NoPred}, // out of both windows
			exitInstr(),
		}}
	vs := lintViolations(t, k, compiler.SWDup, origMax)
	if !hasRule(vs, "R2", "outside primary") {
		t.Fatalf("out-of-window register not flagged: %v", vs)
	}
}

// TestLintReservedPreds exercises R3: program-category code writing or
// guarding on P5/P6 must be flagged; checking/compiler-inserted code and
// masked accesses are allowed.
func TestLintReservedPreds(t *testing.T) {
	k := &isa.Kernel{Name: "preds", GridCTAs: 1, CTAThreads: 32, NumRegs: 4,
		Code: []isa.Instr{
			{Op: isa.ISETP, Mod: isa.CmpEQ, DstPred: 6, Dst: isa.RZ,
				Src: [3]isa.Reg{1, 2, isa.RZ}, GuardPred: isa.NoPred, Cat: isa.CatDuplicated},
			{Op: isa.IADD, Dst: 1, Src: [3]isa.Reg{1, 2, isa.RZ}, GuardPred: 5, Cat: isa.CatDuplicated},
			exitInstr(),
		}}
	vs := lintViolations(t, k, compiler.Baseline, 3)
	if !hasRule(vs, "R3", "writes reserved predicate P6") {
		t.Fatalf("reserved-pred write not flagged: %v", vs)
	}
	if !hasRule(vs, "R3", "guarded by reserved predicate P5") {
		t.Fatalf("reserved-pred guard not flagged: %v", vs)
	}
	// The legitimate uses: checking ISETP writing P6, masked store on P5.
	ok := &isa.Kernel{Name: "preds-ok", GridCTAs: 1, CTAThreads: 32, NumRegs: 4,
		Code: []isa.Instr{
			{Op: isa.ISETP, Mod: isa.CmpNE, DstPred: 6, Dst: isa.RZ,
				Src: [3]isa.Reg{1, 2, isa.RZ}, GuardPred: isa.NoPred, Cat: isa.CatChecking},
			{Op: isa.STG, Dst: isa.RZ, Src: [3]isa.Reg{1, 2, isa.RZ}, GuardPred: 5, GuardNeg: true, Cat: isa.CatNotEligible},
			exitInstr(),
		}}
	if err := Lint(ok, compiler.InterThread, 3); err != nil {
		t.Fatalf("legitimate reserved-pred uses flagged: %v", err)
	}
}

// TestLintControl exercises R4/R5: out-of-range targets, unreachable EXIT
// (an infinite-loop region), and a guarded EXIT falling off the end.
func TestLintControl(t *testing.T) {
	t.Run("out-of-range-target", func(t *testing.T) {
		k := &isa.Kernel{Name: "oob", GridCTAs: 1, CTAThreads: 32, NumRegs: 2,
			Code: []isa.Instr{
				{Op: isa.BRA, Dst: isa.RZ, Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}, Imm: 99, GuardPred: isa.NoPred},
				exitInstr(),
			}}
		vs := lintViolations(t, k, compiler.Baseline, 1)
		if !hasRule(vs, "R4", "out of range") {
			t.Fatalf("out-of-range target not flagged: %v", vs)
		}
	})
	t.Run("exit-unreachable", func(t *testing.T) {
		k := &isa.Kernel{Name: "spin", GridCTAs: 1, CTAThreads: 32, NumRegs: 2,
			Code: []isa.Instr{
				{Op: isa.BRA, Dst: isa.RZ, Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}, Imm: 0, GuardPred: isa.PT},
				exitInstr(), // present but unreachable
			}}
		vs := lintViolations(t, k, compiler.Baseline, 1)
		if !hasRule(vs, "R5", "cannot reach any EXIT") {
			t.Fatalf("infinite-loop region not flagged: %v", vs)
		}
	})
	t.Run("falls-off-end", func(t *testing.T) {
		k := &isa.Kernel{Name: "falloff", GridCTAs: 1, CTAThreads: 32, NumRegs: 2,
			Code: []isa.Instr{
				{Op: isa.EXIT, Dst: isa.RZ, Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}, GuardPred: 0}, // guarded: other lanes fall through
			}}
		vs := lintViolations(t, k, compiler.Baseline, 1)
		if !hasRule(vs, "R4", "can fall through past the end") {
			t.Fatalf("fall-off-end not flagged: %v", vs)
		}
	})
}

// TestLintCleanOnEmittedCode: everything the real passes emit across the
// full matrix lints clean on a representative generated kernel (workloads
// are covered by the matrix acceptance test).
func TestLintCleanOnEmittedCode(t *testing.T) {
	k, _ := GenKernel(99, 2, 64)
	for _, c := range Matrix() {
		tk, err := compiler.ApplyOpts(k, c.Scheme, c.Opts)
		if err != nil {
			continue // inapplicable
		}
		if err := Lint(tk, c.Scheme, k.MaxReg()); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}
