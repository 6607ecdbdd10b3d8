package report

// ResilienceCell is one (rate, workload, ABI) outcome of a fault-injection
// sweep: how the run ended, how many attempts the supervisor spent on it,
// and how many faults were injected into the final attempt.
type ResilienceCell struct {
	RatePerMUops float64 `json:"rate_per_muops"`
	Workload     string  `json:"workload"`
	ABI          string  `json:"abi"`
	// Status is "ok", "deadline", "panic", or the fault-kind name of the
	// fatal capability violation ("tag", "bounds", "perm", ...).
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	Injected int    `json:"injected"`
	// Err is the run's error text, empty for surviving runs.
	Err string `json:"err,omitempty"`
}

// ResilienceReport is the machine-readable form of the resilience
// experiment: the crash matrix extending the paper's Appendix Table 5 from
// two naturally-crashing benchmarks to a systematic rate sweep.
type ResilienceReport struct {
	Tool  string           `json:"tool"`
	Seed  uint64           `json:"seed"`
	Kinds []string         `json:"kinds"`
	Rates []float64        `json:"rates_per_muops"`
	Cells []ResilienceCell `json:"cells"`
}

// NewResilienceReport creates an empty report with provenance metadata.
func NewResilienceReport(seed uint64, kinds []string, rates []float64) *ResilienceReport {
	return &ResilienceReport{Tool: "cherisim", Seed: seed, Kinds: kinds, Rates: rates}
}

// Add appends a cell.
func (r *ResilienceReport) Add(c ResilienceCell) { r.Cells = append(r.Cells, c) }

// Survival returns the fraction of cells at the given rate that survived
// (status "ok"), and the number of such cells.
func (r *ResilienceReport) Survival(rate float64) (frac float64, n int) {
	ok := 0
	for _, c := range r.Cells {
		if c.RatePerMUops != rate {
			continue
		}
		n++
		if c.Status == "ok" {
			ok++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(ok) / float64(n), n
}
