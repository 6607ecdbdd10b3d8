package report

// SecurityCell is one (attack, ABI) verdict of the memory-safety attack
// corpus: the classified outcome, the expected-outcome spec it was checked
// against, and the canary-witness detail for silently corrupted runs.
type SecurityCell struct {
	Attack string `json:"attack"`
	CWE    string `json:"cwe"`
	ABI    string `json:"abi"`
	// Got and Want render the classified and expected outcomes ("clean",
	// "corrupted", "trap(bounds)", ...).
	Got  string `json:"got"`
	Want string `json:"want"`
	// Expected reports whether Got matched the spec; Detail explains a
	// divergence.
	Expected bool   `json:"expected"`
	Detail   string `json:"detail,omitempty"`
	// Uops is the µop count of the run (position of the fault for traps).
	Uops uint64 `json:"uops"`
	// BadWords/FirstBad carry the witnessed corruption extent for
	// corrupted survivals: mismatching canary words and the byte offset
	// of the first, relative to the canary base.
	BadWords uint64 `json:"badWords,omitempty"`
	FirstBad uint64 `json:"firstBad,omitempty"`
}

// SecurityReport is the machine-readable form of the security experiment:
// the corpus × ABI verdict matrix turning the paper's Appendix Table 5
// asymmetry into a regression oracle.
type SecurityReport struct {
	Tool  string         `json:"tool"`
	Cells []SecurityCell `json:"cells"`
}

// NewSecurityReport creates an empty report with provenance metadata.
func NewSecurityReport() *SecurityReport {
	return &SecurityReport{Tool: "cherisim"}
}

// Add appends a cell.
func (r *SecurityReport) Add(c SecurityCell) { r.Cells = append(r.Cells, c) }

// Diverged returns the number of cells whose verdict missed the spec.
func (r *SecurityReport) Diverged() int {
	n := 0
	for _, c := range r.Cells {
		if !c.Expected {
			n++
		}
	}
	return n
}

// SilentCorruptions returns the number of cells that survived with
// witnessed canary corruption.
func (r *SecurityReport) SilentCorruptions() int {
	n := 0
	for _, c := range r.Cells {
		if c.Got == "corrupted" {
			n++
		}
	}
	return n
}
