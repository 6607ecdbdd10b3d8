package report

// ScaleCell is one (topology, cores, ABI) point of the many-core scale
// experiment: the co-run's aggregate slowdown against its solo baseline
// plus the fabric's traffic and contention accounting.
type ScaleCell struct {
	Topology string `json:"topology"`
	Cores    int    `json:"cores"`
	Slices   int    `json:"slices"`
	ABI      string `json:"abi"`
	Epochs   uint64 `json:"epochs"`
	// MeanSlowdown and WorstSlowdown are co-run/solo time ratios across
	// the cores (1.0 = no interference).
	MeanSlowdown  float64 `json:"meanSlowdown"`
	WorstSlowdown float64 `json:"worstSlowdown"`
	// LLCReadMR is the mean per-core last-level read miss ratio.
	LLCReadMR float64 `json:"llcReadMR"`
	// HopsPerAccess is the mean NoC distance of an LLC access.
	HopsPerAccess float64 `json:"hopsPerAccess"`
	// SliceContention and LinkContention are the fabric's total settled
	// contention cycles, by resource class.
	SliceContention uint64 `json:"sliceContention"`
	LinkContention  uint64 `json:"linkContention"`
	// Accesses is the total sliced-LLC traffic the fabric carried.
	Accesses uint64 `json:"accesses"`
}

// ScaleReport is the machine-readable form of the scale experiment: the
// topology x core-count x ABI sweep over the fabric co-runs.
type ScaleReport struct {
	Tool     string      `json:"tool"`
	Workload string      `json:"workload"`
	Cells    []ScaleCell `json:"cells"`
}

// NewScaleReport creates an empty report with provenance metadata.
func NewScaleReport(workload string) *ScaleReport {
	return &ScaleReport{Tool: "cherisim", Workload: workload}
}

// Add appends a cell.
func (r *ScaleReport) Add(c ScaleCell) { r.Cells = append(r.Cells, c) }
