// Command export runs the full measurement campaign (every workload under
// every ABI) through an experiments session — prefetched across the worker
// pool and supervised like every campaign run — and writes the results as
// machine-readable artefacts: the simulator's equivalent of the paper's
// published data (github.com/xshaun/iiswc25-ae).
//
// Usage:
//
//	export -json results.json -metrics metrics.csv -events events.csv
//	export -json - > results.json          # stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cherisim/internal/experiments"
	"cherisim/internal/report"
)

func main() {
	jsonPath := flag.String("json", "", "write the full dataset as JSON ('-' for stdout)")
	metricsPath := flag.String("metrics", "", "write derived metrics as CSV")
	eventsPath := flag.String("events", "", "write raw PMU events as CSV")
	scale := flag.Int("scale", 1, "workload scale factor")
	flag.Parse()
	if *jsonPath == "" && *metricsPath == "" && *eventsPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	s := experiments.NewSession(*scale)
	grid := experiments.CampaignGrid()
	s.Prefetch(grid)
	d := report.NewDataset(*scale)
	for _, p := range grid {
		r := s.Run(p.Workload, p.ABI)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "export: %s/%s faulted: %v (partial counters exported)\n", p.Workload.Name, p.ABI, r.Err)
		}
		d.Add(report.NewSample(p.Workload.Name, p.ABI, &r.Counters))
		fmt.Fprintf(os.Stderr, "measured %s/%s\n", p.Workload.Name, p.ABI)
	}

	write := func(path string, fn func(io.Writer) error) {
		if path == "" {
			return
		}
		var w io.Writer = os.Stdout
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := fn(w); err != nil {
			fatal(err)
		}
	}
	write(*jsonPath, d.WriteJSON)
	write(*metricsPath, d.WriteMetricsCSV)
	write(*eventsPath, d.WriteEventsCSV)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "export:", err)
	os.Exit(1)
}
