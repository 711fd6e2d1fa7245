// Package core implements the SwapCodes register-file contract — the
// paper's primary contribution. A SwapCodes register file stores an ECC
// word per 32-bit register; the original instruction of a duplicated pair
// writes the data, its check bits, and the (never-swapped) data-parity bit,
// and the shadow instruction then overwrites only the check bits (the
// Table II masked ECC write). The swap invariant — a single pipeline error
// can corrupt the data or the check bits of a codeword, never both — lets
// the ordinary storage decoder detect pipeline errors on every register
// read, with the Section III-B reporting algorithms preserving storage
// correction without miscorrection risk.
package core

import (
	"fmt"

	"swapcodes/internal/ecc"
)

// Organization selects the register-file error code and reporting scheme.
type Organization int

// Register-file organizations evaluated in the paper.
const (
	// OrgSECDEDDP: Hsiao SEC-DED plus the unswapped data-parity bit
	// (8 redundant bits; storage correction retained).
	OrgSECDEDDP Organization = iota
	// OrgSECDP: Hamming SEC plus data parity within SEC-DED's 7 bits;
	// relies on codeword layout to close the double-bit storage hole.
	OrgSECDP
	// OrgTED: detection-only SEC-DED (no correction attempted).
	OrgTED
	// OrgParity: a single even-parity bit (weakest Figure 11 code).
	OrgParity
	// OrgMod3 .. OrgMod127: low-cost residue detection-only codes.
	OrgMod3
	OrgMod7
	OrgMod15
	OrgMod31
	OrgMod63
	OrgMod127
)

// String implements fmt.Stringer.
func (o Organization) String() string {
	switch o {
	case OrgSECDEDDP:
		return "SEC-DED-DP"
	case OrgSECDP:
		return "SEC-DP"
	case OrgTED:
		return "TED"
	case OrgParity:
		return "Parity"
	default:
		return fmt.Sprintf("Mod-%d", 1<<uint(o-OrgMod3+2)-1)
	}
}

// NewCode instantiates the organization's code. SEC-DED-DP and SEC-DP
// return *ecc.DPCode (correctors); the rest are detection-only.
func (o Organization) NewCode() ecc.Code {
	switch o {
	case OrgSECDEDDP:
		return ecc.NewSECDEDDP()
	case OrgSECDP:
		return ecc.NewSECDP()
	case OrgTED:
		return ecc.NewTED()
	case OrgParity:
		return ecc.Parity{}
	default:
		return ecc.NewResidue(int(o-OrgMod3) + 2)
	}
}

// Outcome classifies a register read.
type Outcome int

// Read outcomes.
const (
	// ReadOK: the word decoded clean.
	ReadOK Outcome = iota
	// ReadCorrectedStorage: a storage error was repaired; data is good.
	ReadCorrectedStorage
	// ReadDUEPipeline: a detected-uncorrectable error attributed to the
	// pipeline (the SwapCodes detection event).
	ReadDUEPipeline
	// ReadDUEStorage: a detected-uncorrectable error attributed to storage
	// or unattributable.
	ReadDUEStorage
)

// String implements fmt.Stringer.
func (oc Outcome) String() string {
	switch oc {
	case ReadOK:
		return "OK"
	case ReadCorrectedStorage:
		return "corrected(storage)"
	case ReadDUEPipeline:
		return "DUE(pipeline)"
	default:
		return "DUE(storage)"
	}
}

// Word is one stored register: data, check bits, and (for DP
// organizations) the data-parity bit.
type Word struct {
	Data  uint32
	Check uint32
	DP    uint32
}

// RegFile is a SwapCodes-protected register file for one warp: NumRegs
// registers × 32 lanes.
type RegFile struct {
	org     Organization
	code    ecc.Code
	dp      *ecc.DPCode // non-nil for the correcting organizations
	words   []Word
	numRegs int
}

// NewRegFile allocates a protected register file.
func NewRegFile(org Organization, numRegs, lanes int) *RegFile {
	rf := &RegFile{org: org, code: org.NewCode(), numRegs: numRegs,
		words: make([]Word, numRegs*lanes)}
	if d, ok := rf.code.(*ecc.DPCode); ok {
		rf.dp = d
	}
	return rf
}

// Org returns the register file's organization.
func (rf *RegFile) Org() Organization { return rf.org }

func (rf *RegFile) at(reg, lane int) *Word { return &rf.words[reg*32+lane] }

// WriteFull is the original instruction's write-back: data, check bits
// encoded from that same (possibly erroneous) result, and the data-parity
// bit. During error-free operation the register holds a valid codeword at
// all times, preserving debugability and interrupt handling (Section III-A).
func (rf *RegFile) WriteFull(reg, lane int, value uint32) {
	w := rf.at(reg, lane)
	w.Data = value
	w.DP = ecc.DataParity(value)
	if rf.dp != nil {
		w.Check = rf.dp.EncodeCheck(value)
	} else {
		w.Check = rf.code.Encode(value)
	}
}

// WriteShadow is the masked ECC-only write of a shadow instruction: only
// the check bits (computed from the shadow's result) land; the data and
// data-parity bits are untouched. This is the swap.
func (rf *RegFile) WriteShadow(reg, lane int, value uint32) {
	w := rf.at(reg, lane)
	if rf.dp != nil {
		w.Check = rf.dp.EncodeCheck(value)
	} else {
		w.Check = rf.code.Encode(value)
	}
}

// WritePredicted is a Swap-Predict write-back: the data comes from the main
// datapath while the check bits come from the prediction pipeline. For move
// propagation the "prediction" is the source register's stored check word.
func (rf *RegFile) WritePredicted(reg, lane int, value uint32, check uint32) {
	w := rf.at(reg, lane)
	w.Data = value
	w.DP = ecc.DataParity(value)
	w.Check = check
}

// PredictCheck returns the check bits an ideal prediction unit forms for a
// result value (Swap-Predict write-back). Prediction operates on input
// residues/check-bits and so is independent of main-datapath errors; callers
// pass the error-free result. For residue organizations the simulator uses
// the REAL prediction algebra where the paper designed it (fixed-point
// add/sub/mul/MAD, via ResidueCode); this idealized form stands in for the
// Figure 16 "plausible future predictors" (logic, shift, floating point).
func (rf *RegFile) PredictCheck(value uint32) uint32 {
	if rf.dp != nil {
		return rf.dp.EncodeCheck(value)
	}
	return rf.code.Encode(value)
}

// ResidueCode exposes the underlying low-cost residue code when the
// organization is a residue one, enabling true input-residue check-bit
// prediction (Section III-C).
func (rf *RegFile) ResidueCode() (ecc.Residue, bool) {
	r, ok := rf.code.(ecc.Residue)
	return r, ok
}

// CheckBitsOf reads a register's stored check bits without decoding (the
// move-propagation read path of Figure 4).
func (rf *RegFile) CheckBitsOf(reg, lane int) uint32 { return rf.at(reg, lane).Check }

// PropagateMove copies the full stored ECC word from src to dst — the
// Figure 4 end-to-end move propagation that lets Swap-ECC skip duplicating
// MOV instructions.
func (rf *RegFile) PropagateMove(dstReg, srcReg, lane int) {
	*rf.at(dstReg, lane) = *rf.at(srcReg, lane)
}

// Read decodes a register through the organization's reporting algorithm,
// returning the (possibly corrected) value and the outcome.
func (rf *RegFile) Read(reg, lane int) (uint32, Outcome) {
	w := rf.at(reg, lane)
	if rf.dp != nil {
		out := rf.dp.Report(ecc.DPWord{Data: w.Data, Check: w.Check, DP: w.DP})
		switch out.Result {
		case ecc.OK:
			return out.Data, ReadOK
		case ecc.CorrectedData, ecc.CorrectedCheck:
			// Scrub the repaired word back.
			w.Data = out.Data
			if rf.dp != nil {
				w.Check = rf.dp.EncodeCheck(out.Data)
			}
			w.DP = ecc.DataParity(out.Data)
			return out.Data, ReadCorrectedStorage
		default:
			if out.Class == ecc.PipelineError {
				return out.Data, ReadDUEPipeline
			}
			return out.Data, ReadDUEStorage
		}
	}
	if rf.code.Detects(w.Data, w.Check) {
		// Detection-only organizations cannot attribute; under the swap
		// invariant a mismatch on a freshly written register is a pipeline
		// error, which is how the simulator uses this path.
		return w.Data, ReadDUEPipeline
	}
	return w.Data, ReadOK
}

// InjectStorageError flips bits of a stored word at rest: dataMask on the
// data bits, checkMask on the check bits, dpFlip on the data-parity bit.
func (rf *RegFile) InjectStorageError(reg, lane int, dataMask, checkMask uint32, dpFlip bool) {
	w := rf.at(reg, lane)
	w.Data ^= dataMask
	w.Check ^= checkMask
	if dpFlip {
		w.DP ^= 1
	}
}
