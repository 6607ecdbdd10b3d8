// Command experiments regenerates the paper's tables and figures on the
// simulated Morello platform.
//
// Usage:
//
//	experiments -list            # enumerate experiments
//	experiments -run fig1        # regenerate one artefact
//	experiments -all             # regenerate everything
//	experiments -all -scale 3    # run workloads at 3x length
//	experiments -all -jobs 8     # fan the measurement campaign over 8 workers
//
// Chaos mode injects deterministic capability faults into every run:
//
//	experiments -run resilience -chaos-seed 7   # seeded crash-matrix sweep
//	experiments -all -chaos all                 # inject into the whole campaign
//	experiments -all -chaos tag-clear,perm-drop -chaos-rate 200
//	experiments -all -deadline 50000000         # per-run µop watchdog budget
//
// The security gate runs the memory-safety attack corpus and checks every
// per-ABI verdict against its expected-outcome spec (exit 1 on divergence):
//
//	experiments -run security                   # full corpus x 3 ABIs
//	experiments -run security -attacks uaf,oob-write
//
// Observability turns the measurement lens back on the engine itself:
//
//	experiments -all -trace-out trace.json      # Perfetto-loadable timeline
//	experiments -all -jobs 4 -http :8080        # /metrics /spans /healthz /debug/pprof
//	experiments -all -log-level info -log-json  # structured slog on stderr
//
// The persistent result store turns re-runs into campaign resumes, and the
// golden baseline turns "no figure moved" into an enforced gate:
//
//	experiments -all -store .cherisim-store     # cold: simulate + persist
//	experiments -all -store .cherisim-store     # warm: zero simulations
//	experiments -baseline testdata/golden-scale1.json -update-baseline
//	experiments -baseline testdata/golden-scale1.json   # exit 1 on drift
//
// The (workload, ABI) measurement grid is prefetched across a worker pool
// of -jobs simulated machines before rendering; because every run is
// deterministic and isolated, the rendered output is byte-identical for
// any -jobs value (including the fully serial -jobs 1). With -chaos off
// the output is also byte-identical to a chaos-unaware build; the campaign
// is supervised either way, so a crashing or runaway workload degrades its
// experiment into the error summary instead of aborting the process. The
// same holds for telemetry: with the flags above unset the engine is
// unobserved and inert, and enabling them never changes what is measured —
// spans, metrics and traces ride the supervisor, not the machines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"cherisim/internal/abi"
	"cherisim/internal/attacks"
	"cherisim/internal/experiments"
	"cherisim/internal/faultinject"
	"cherisim/internal/golden"
	"cherisim/internal/profile"
	"cherisim/internal/resultstore"
	"cherisim/internal/soc"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "run a single experiment by id")
	all := flag.Bool("all", false, "run every experiment")
	scale := flag.Int("scale", 1, "workload scale factor")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0),
		"max concurrently simulated workloads (1 = serial; capped at GOMAXPROCS)")
	chaos := flag.String("chaos", "",
		`inject capability faults into every run: "all" or comma-separated kinds (tag-clear, line-corrupt, bounds-truncate, perm-drop, spurious-trap)`)
	chaosSeed := flag.Uint64("chaos-seed", 1, "campaign seed for the deterministic fault injector")
	chaosRate := flag.Float64("chaos-rate", 400, "injected events per million µops when -chaos is set")
	checkFlag := flag.Bool("check", false,
		"run every measurement under the lockstep reference-model checker (slower; divergences are reported on stderr and fail the exit code)")
	deadline := flag.Int64("deadline", 0, "per-run µop watchdog budget (0 = unlimited)")
	retries := flag.Int("retries", 2, "bounded retries for transient injected faults")
	attacksFlag := flag.String("attacks", "",
		"comma-separated attack names restricting the security experiment (requires -run security)")
	topologyFlag := flag.String("topology", "",
		"comma-separated fabric topologies (mesh, ring) for the scale experiment (requires -run scale)")
	coresFlag := flag.String("cores", "",
		"comma-separated fabric core counts for the scale experiment (requires -run scale)")
	flameOut := flag.String("flame-out", "",
		"write the hotspot profiles as folded flamegraph stacks to this file (requires -run hotspots)")
	pprofOut := flag.String("pprof-out", "",
		"write the hotspot profiles as a gzipped pprof protobuf to this file (requires -run hotspots)")
	traceOut := flag.String("trace-out", "",
		"write the campaign timeline as Chrome trace-event JSON (load at ui.perfetto.dev)")
	httpAddr := flag.String("http", "",
		"serve ops endpoints (/metrics, /spans, /healthz, /debug/pprof) on this address during the campaign")
	logLevel := flag.String("log-level", "",
		"emit structured logs on stderr at this level (debug, info, warn, error; empty = silent)")
	logJSON := flag.Bool("log-json", false, "structured logs as JSON lines instead of text")
	storeDir := flag.String("store", "",
		"persistent result-store directory: serve cached runs from it and persist new ones (campaign resume)")
	baselinePath := flag.String("baseline", "",
		"golden baseline file: gate the campaign's metric vectors against it (non-zero exit on drift)")
	updateBaseline := flag.Bool("update-baseline", false,
		"regenerate the -baseline file from this campaign instead of gating against it")
	flag.Parse()

	cfg, err := sessionConfig(*jobs, *chaos, *chaosRate, *chaosSeed, *deadline, *retries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	var attackNames []string
	if *attacksFlag != "" {
		if *run != "security" {
			fmt.Fprintln(os.Stderr, "experiments: -attacks only applies to the security experiment (use -run security)")
			os.Exit(2)
		}
		attackNames = strings.Split(*attacksFlag, ",")
		if _, err := attacks.Select(attackNames); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	topoNames, coreCounts, err := scaleConfig(*topologyFlag, *coresFlag, *run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if (*flameOut != "" || *pprofOut != "") && *run != "hotspots" {
		fmt.Fprintln(os.Stderr, "experiments: -flame-out/-pprof-out only apply to the hotspots experiment (use -run hotspots)")
		os.Exit(2)
	}
	if err := baselineConfig(*baselinePath, *updateBaseline, *run); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	var store *resultstore.Store
	if *storeDir != "" {
		if store, err = resultstore.Open(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	hub, ops, err := setupTelemetry(*traceOut, *httpAddr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if ops != nil {
		fmt.Fprintf(os.Stderr, "experiments: ops endpoints at http://%s (/metrics /spans /healthz /debug/pprof)\n", ops.Addr)
	}

	newSession := func() *experiments.Session {
		s := experiments.NewSession(*scale)
		cfg.apply(s)
		s.Telemetry = hub
		s.Check = *checkFlag
		s.Store = store
		s.Attacks = attackNames
		s.Topologies = topoNames
		s.CoreCounts = coreCounts
		return s
	}
	reportStore := func() {
		if store != nil {
			fmt.Fprintf(os.Stderr, "experiments: store: %s\n", store.Stats())
		}
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %-14s %s\n", e.ID, e.Section, e.Title)
		}
	case *run != "":
		e, err := experiments.ByID(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; available:\n", *run)
			for _, e := range experiments.All() {
				fmt.Fprintf(os.Stderr, "  %-20s %s\n", e.ID, e.Title)
			}
			os.Exit(1)
		}
		s := newSession()
		if e.Pairs != nil {
			s.Prefetch(e.Pairs())
		}
		out, err := e.Run(s)
		if err == nil {
			// Exports reuse the render's cached profiles: every ProfileRun
			// below is a singleflight hit, no extra simulation.
			if xerr := writeProfileExports(s, *flameOut, *pprofOut, os.Stderr); xerr != nil {
				err = xerr
			}
		}
		teardownTelemetry(s, hub, ops, *traceOut)
		reportStore()
		code := reportCheck(s, os.Stderr)
		// A gate experiment (security) renders its matrix and returns an
		// error for the exit code: print what rendered before failing.
		if out != "" {
			fmt.Printf("== %s (%s) ==\n%s\n", e.Title, e.Section, out)
		}
		if err != nil {
			fatal(err)
		}
		if code != 0 {
			os.Exit(code)
		}
	case *all:
		// Degraded-mode campaign: render every experiment that succeeds,
		// summarise the rest, and reflect failures in the exit code.
		s := newSession()
		code := runCampaign(s, os.Stdout, os.Stderr)
		if *baselinePath != "" {
			if c := gateBaseline(s, hub, *baselinePath, *updateBaseline, os.Stderr); c != 0 {
				code = c
			}
		}
		teardownTelemetry(s, hub, ops, *traceOut)
		reportStore()
		if c := reportCheck(s, os.Stderr); c != 0 {
			code = c
		}
		if code != 0 {
			os.Exit(code)
		}
	case *baselinePath != "":
		// Standalone gate (or capture): run the measurement grid, compare
		// (or write) the golden baseline — the CI regression check.
		s := newSession()
		code := gateBaseline(s, hub, *baselinePath, *updateBaseline, os.Stderr)
		teardownTelemetry(s, hub, ops, *traceOut)
		reportStore()
		if c := reportCheck(s, os.Stderr); c != 0 {
			code = c
		}
		if code != 0 {
			os.Exit(code)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// scaleConfig validates the scale-experiment sweep flags before any work
// runs: both only apply to -run scale, topology names must parse, and
// core counts must be positive integers within the fabric's range.
func scaleConfig(topology, cores, run string) (topos []string, counts []int, err error) {
	if topology == "" && cores == "" {
		return nil, nil, nil
	}
	if run != "scale" {
		return nil, nil, fmt.Errorf("-topology/-cores only apply to the scale experiment (use -run scale)")
	}
	if topology != "" {
		for _, tp := range strings.Split(topology, ",") {
			kind, err := soc.ParseTopologyKind(tp)
			if err != nil {
				return nil, nil, err
			}
			topos = append(topos, kind)
		}
	}
	if cores != "" {
		for _, c := range strings.Split(cores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil {
				return nil, nil, fmt.Errorf("-cores: %q is not an integer", c)
			}
			if n < 1 || n > soc.MaxCores {
				return nil, nil, fmt.Errorf("-cores: count %d outside [1, %d]", n, soc.MaxCores)
			}
			counts = append(counts, n)
		}
	}
	return topos, counts, nil
}

// baselineConfig validates the golden-gate flag combinations before any
// work runs: the updater needs a file to write, and the gate compares the
// full measurement grid, which a single -run does not populate.
func baselineConfig(baseline string, update bool, run string) error {
	if update && baseline == "" {
		return fmt.Errorf("-update-baseline requires -baseline FILE")
	}
	if baseline != "" && run != "" {
		return fmt.Errorf("-baseline gates the full measurement grid; it cannot be combined with -run (use -all or -baseline alone)")
	}
	return nil
}

// gateBaseline runs the golden-baseline regression gate against s (or,
// with update set, recaptures the baseline file). Returns the exit-code
// contribution: 1 when any metric drifted out of tolerance, 0 otherwise.
func gateBaseline(s *experiments.Session, hub *telemetry.Hub, path string, update bool, stderr io.Writer) int {
	snap := s.MetricSnapshot()
	if update {
		b := golden.New(resultstore.ModelFingerprint(), s.Scale, snap)
		if err := b.Write(path); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		fmt.Fprintf(stderr, "experiments: baseline: wrote %d pairs to %s (model %s)\n",
			len(snap), path, resultstore.ModelFingerprint())
		return 0
	}
	b, err := golden.Load(path)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	if b.Scale != s.Scale {
		fmt.Fprintf(stderr, "experiments: baseline: %s was captured at -scale %d, this campaign runs -scale %d; refusing to compare\n",
			path, b.Scale, s.Scale)
		return 1
	}
	if b.Model != resultstore.ModelFingerprint() {
		fmt.Fprintf(stderr, "experiments: baseline: warning: %s was captured under model %s, this simulator is %s; drifts below may reflect the model change (regenerate with -update-baseline)\n",
			path, b.Model, resultstore.ModelFingerprint())
	}
	drifts := b.Diff(snap)
	if hub.Enabled() {
		hub.Metrics.Counter("golden_drift").Add(int64(len(drifts)))
	}
	if len(drifts) == 0 {
		fmt.Fprintf(stderr, "experiments: baseline: %d pairs within tolerance of %s\n", len(b.Entries), path)
		return 0
	}
	fmt.Fprintf(stderr, "experiments: baseline: %d drifts from %s:\n", len(drifts), path)
	for _, d := range drifts {
		fmt.Fprintf(stderr, "  %s\n", d)
	}
	return 1
}

// reportCheck summarizes the session's lockstep checker results on w and
// returns the exit code contribution: 0 when checking is off or every
// checked operation agreed with the reference models, 1 on divergence.
func reportCheck(s *experiments.Session, w io.Writer) int {
	defer s.CloseCheck()
	rep := s.CheckReport()
	if rep.Accesses == 0 && rep.Divergences == 0 {
		return 0
	}
	fmt.Fprintf(w, "experiments: check: %d operations verified against the reference models, %d divergences\n",
		rep.Accesses, rep.Divergences)
	if rep.Divergences == 0 {
		return 0
	}
	for _, d := range rep.First {
		fmt.Fprintf(w, "experiments: check: %s\n", d)
	}
	if extra := rep.Divergences - uint64(len(rep.First)); extra > 0 {
		fmt.Fprintf(w, "experiments: check: ... and %d more divergences\n", extra)
	}
	return 1
}

// runCampaign renders every experiment against s in degraded mode, writes
// the failure summary to stderr, and returns the process exit code: each
// failed experiment appears in the summary exactly once.
func runCampaign(s *experiments.Session, stdout, stderr io.Writer) int {
	failed := experiments.RenderAll(s, stdout)
	if len(failed) == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "experiments: %d of %d experiments failed:\n", len(failed), len(experiments.Renderable()))
	for _, f := range failed {
		fmt.Fprintf(stderr, "  %-20s %v\n", f.ID, f.Err)
	}
	return 1
}

// setupTelemetry builds the hub implied by the observability flags: nil
// (fully inert engine) when none is set, otherwise a hub with the
// requested logger and, for -http, a live ops server.
func setupTelemetry(traceOut, httpAddr, logLevel string, logJSON bool) (*telemetry.Hub, *telemetry.OpsServer, error) {
	if traceOut == "" && httpAddr == "" && logLevel == "" {
		return nil, nil, nil
	}
	hub := telemetry.New()
	log, err := telemetry.NewLogger(os.Stderr, logLevel, logJSON)
	if err != nil {
		return nil, nil, err
	}
	hub.Log = log
	var ops *telemetry.OpsServer
	if httpAddr != "" {
		if ops, err = telemetry.StartOps(httpAddr, hub); err != nil {
			return nil, nil, err
		}
	}
	return hub, ops, nil
}

// teardownTelemetry flushes the campaign's telemetry: ends the campaign
// span, writes the -trace-out file, and stops the ops server.
func teardownTelemetry(s *experiments.Session, hub *telemetry.Hub, ops *telemetry.OpsServer, traceOut string) {
	if s != nil {
		s.FinishTelemetry()
	}
	if hub != nil && traceOut != "" {
		if err := writeTraceFile(traceOut, hub); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		} else {
			fmt.Fprintf(os.Stderr, "experiments: wrote trace to %s (%d spans; load at ui.perfetto.dev)\n",
				traceOut, hub.Spans.Total())
		}
	}
	ops.Close()
}

// writeProfileExports renders the hotspot campaign's attribution profiles
// as folded flamegraph stacks (-flame-out) and/or a gzipped pprof protobuf
// (-pprof-out). A no-op when neither flag is set.
func writeProfileExports(s *experiments.Session, flameOut, pprofOut string, stderr io.Writer) error {
	if flameOut == "" && pprofOut == "" {
		return nil
	}
	profs, err := s.HotspotProfiles()
	if err != nil {
		return err
	}
	if flameOut != "" {
		f, err := os.Create(flameOut)
		if err != nil {
			return err
		}
		for _, w := range workloads.TopDownSet() {
			for _, a := range abi.All() {
				if err := profile.WriteFolded(f, w.Name, a, profs[w.Name][a]); err != nil {
					f.Close()
					return err
				}
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "experiments: wrote folded flamegraph stacks to %s\n", flameOut)
	}
	if pprofOut != "" {
		var pw profile.Pprof
		for _, w := range workloads.TopDownSet() {
			for _, a := range abi.All() {
				pw.Add(w.Name, a, profs[w.Name][a])
			}
		}
		f, err := os.Create(pprofOut)
		if err != nil {
			return err
		}
		if err := pw.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "experiments: wrote pprof profile to %s (%d samples; go tool pprof %s)\n",
			pprofOut, pw.SampleCount(), pprofOut)
	}
	return nil
}

// writeTraceFile exports the hub's spans as Chrome trace-event JSON.
func writeTraceFile(path string, hub *telemetry.Hub) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTrace(f, hub.Spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sessionCfg is the validated supervisor configuration applied to every
// session the command builds.
type sessionCfg struct {
	jobs     int
	chaos    *faultinject.Config
	seed     uint64
	deadline uint64
	retries  int
}

// sessionConfig validates the CLI inputs: negative -jobs, -chaos-rate,
// -deadline or -retries and unknown -chaos fault kinds are rejected with a
// clear error before any work runs.
func sessionConfig(jobs int, chaos string, rate float64, seed uint64, deadline int64, retries int) (*sessionCfg, error) {
	if jobs < 0 {
		return nil, fmt.Errorf("-jobs must be >= 0, got %d", jobs)
	}
	if retries < 0 {
		return nil, fmt.Errorf("-retries must be >= 0, got %d", retries)
	}
	if deadline < 0 {
		return nil, fmt.Errorf("-deadline must be >= 0, got %d", deadline)
	}
	if rate < 0 {
		return nil, fmt.Errorf("-chaos-rate must be >= 0, got %g", rate)
	}
	cfg := &sessionCfg{jobs: jobs, seed: seed, deadline: uint64(deadline), retries: retries}
	if chaos != "" {
		if rate == 0 {
			return nil, fmt.Errorf("-chaos-rate must be > 0 when -chaos is set, got %g", rate)
		}
		kinds, err := faultinject.ParseKinds(chaos)
		if err != nil {
			return nil, err
		}
		cfg.chaos = &faultinject.Config{Seed: seed, RatePerMUops: rate, Kinds: kinds}
	}
	return cfg, nil
}

// apply installs the configuration on a fresh session.
func (c *sessionCfg) apply(s *experiments.Session) {
	s.Jobs = c.jobs
	s.Chaos = c.chaos
	s.ChaosSeed = c.seed
	s.DeadlineUops = c.deadline
	s.Retries = c.retries
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
