package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
	"swapcodes/internal/verify"
	"swapcodes/internal/workloads"
)

// matrixSetupReps is how many set-ups verify_matrix's set-up batch holds.
const matrixSetupReps = 110

// genSubjects is how many seed-generated kernels join the 15 workloads.
const genSubjects = 2

// subjectSpec is a program under differential verification.
type subjectSpec struct {
	name     string
	kernel   *isa.Kernel
	memWords int
	fill     func(*sm.GPU)
}

// checkCell is one (subject, combo) check.
type checkCell struct{ subject, combo int }

type matrixState struct {
	subjects []subjectSpec
	combos   []verify.Combo
	cells    []checkCell // shuffled
}

func newMatrixState(seed int64) *matrixState {
	st := &matrixState{combos: verify.Matrix()}
	for _, w := range workloads.All() {
		st.subjects = append(st.subjects, subjectSpec{w.Name, w.Kernel, w.MemWords, w.Setup})
	}
	rng := newRand(seed)
	patterns := verify.Patterns()
	for i := 0; i < genSubjects; i++ {
		ks := rng.Int63()
		k, mem := verify.GenKernel(ks, 2, 64)
		p := patterns[rng.Intn(len(patterns))]
		st.subjects = append(st.subjects, subjectSpec{fmt.Sprintf("gen%d-%s", ks, p.Name), k, mem, verify.GenFill(p, ks)})
	}
	for s := range st.subjects {
		for c := range st.combos {
			st.cells = append(st.cells, checkCell{s, c})
		}
	}
	rng.Shuffle(len(st.cells), func(i, j int) { st.cells[i], st.cells[j] = st.cells[j], st.cells[i] })
	return st
}

func runVerifyMatrix(b *bench) error {
	// Set-up: the subjects, the shuffled cells, and every subject's inputs.
	var st *matrixState
	if err := b.setup(matrixSetupReps, func() error {
		st = newMatrixState(b.seed)
		for _, s := range st.subjects {
			s.fill(sm.NewGPU(sm.DefaultConfig(), s.memWords))
		}
		return nil
	}); err != nil {
		return err
	}
	err := b.measure(func(pass int) error {
		subjects := make([]*verify.Subject, len(st.subjects))
		outcome := make([]byte, len(st.subjects)*len(st.combos))
		counts := make(map[string]int64)
		for i, cell := range st.cells {
			b.op(func() error {
				// A subject's first check also captures its baseline run.
				name := "verify.check"
				s := subjects[cell.subject]
				if s == nil {
					name = "verify.subject"
				}
				sp := b.tr.start(name, -1, int32(i))
				defer b.tr.stop(sp)
				if s == nil {
					spec := st.subjects[cell.subject]
					s = verify.NewSubject(spec.kernel, spec.memWords, spec.fill)
					subjects[cell.subject] = s
				}
				c := st.combos[cell.combo]
				subj := st.subjects[cell.subject].name
				err := s.Check(c)
				slot := &outcome[cell.subject*len(st.combos)+cell.combo]
				switch {
				case err == nil:
					*slot = 'p'
					counts["verify.pass_n"]++
					return nil
				case errors.Is(err, verify.ErrNotApplicable) && expectedSkip(subj, c.Scheme):
					*slot = 's'
					counts["verify.skip_n"]++
					return fmt.Errorf("%s %s: %w: %v", subj, c.Name(), errSkip, err)
				default:
					// Includes ErrNotApplicable outside the expected cells:
					// a combo that stops applying is a failure.
					*slot = 'f'
					counts["verify.fail_n"]++
					return fmt.Errorf("%s %s: %w", subj, c.Name(), err)
				}
			})
		}
		sum := sha256.Sum256(outcome)
		b.guard(pass, counts, hex.EncodeToString(sum[:]))
		return nil
	})
	if err != nil {
		return err
	}
	b.layer["verify.pass_n"] = float64(b.counts["verify.pass_n"])
	b.layer["verify.skip_n"] = float64(b.counts["verify.skip_n"])
	if b.tr != nil {
		b.layerSelf(map[string]string{"verify.subject": "verify.subject_s", "verify.check": "verify.check_s"})
	}
	return nil
}
