package swapcodes

import (
	"errors"
	"testing"

	"swapcodes/internal/isa"
)

// TestFacadeEndToEnd exercises the public API exactly as README's
// quickstart describes it.
func TestFacadeEndToEnd(t *testing.T) {
	base := MustParseKernel(`
.kernel axpy grid=1 cta=32 shared=0
    s2r  r0, tid
    ldg  r1, [r0+0]
    ffma r1, r1, r1, r1
    stg  [r0+32], r1
    exit
`)
	prot, err := Protect(base, SwapECC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ECC = true
	g := NewGPU(cfg, 128)
	for i := 0; i < 32; i++ {
		g.SetFloat32(i, float32(i))
	}
	st, err := g.Launch(prot)
	if err != nil {
		t.Fatal(err)
	}
	if st.PipelineDUEs != 0 {
		t.Fatal("false positive")
	}
	for i := 0; i < 32; i++ {
		want := float32(i)*float32(i) + float32(i)
		if got := g.Float32(32 + i); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
	// Round-trip the textual form.
	if _, err := ParseKernel(FormatKernel(prot)); err != nil {
		t.Fatal(err)
	}
	// The register-file contract stands alone too.
	rf := NewRegFile(OrgSECDEDDP, 2, 32)
	rf.WriteFull(0, 0, 7)
	rf.WriteShadow(0, 0, 9) // pipeline mismatch
	if _, out := rf.Read(0, 0); out.String() != "DUE(pipeline)" {
		t.Fatalf("outcome %v", out)
	}
	// Codes.
	r := NewResidue(3)
	if r.CorrectionFactor() != 4 {
		t.Fatal("mod-7 correction factor")
	}
	if len(Workloads()) != 15 {
		t.Fatal("workload inventory")
	}
	if _, err := WorkloadByName("snap"); err != nil {
		t.Fatal(err)
	}
}

// TestGuardedExitKernelRejected: a kernel whose last instruction is a
// guarded EXIT would run its guarded-off lanes past the end of the code.
// Both the text and the binary path must reject it with a typed error
// before the SM can index past the code.
func TestGuardedExitKernelRejected(t *testing.T) {
	const src = `.kernel k grid=1 cta=32 shared=0
  @p0 exit
`
	launch := func(k *Kernel, err error) error {
		if err != nil {
			return err
		}
		_, err = NewGPU(DefaultConfig(), 1024).Launch(k)
		return err
	}
	var fe *isa.FallThroughError
	if err := launch(ParseKernel(src)); !errors.As(err, &fe) {
		t.Fatalf("text path: got %v, want a FallThroughError", err)
	}
	k := &Kernel{Name: "k", GridCTAs: 1, CTAThreads: 32, NumRegs: 1,
		Code: []Instr{{Op: isa.EXIT, Dst: RZ, Src: [3]Reg{RZ, RZ, RZ}, GuardPred: 0}}}
	if err := launch(k, nil); !errors.As(err, &fe) {
		t.Fatalf("launch of the built kernel: got %v, want a FallThroughError", err)
	}
	if err := launch(isa.DecodeBinary(k.EncodeBinary())); !errors.As(err, &fe) {
		t.Fatalf("binary path: got %v, want a FallThroughError", err)
	}
}
