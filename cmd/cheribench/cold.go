package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/experiments"
	"cherisim/internal/golden"
	"cherisim/internal/pmu"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

// childEnv carries a cold pass's spec to a re-executed copy of the bench.
// Every cold pass runs in a fresh process: internal/experiments keeps a
// process-global replay cache that would serve a second in-process pass
// from recordings, so it would no longer be cold.
const childEnv = "CHERIBENCH_CHILD"

// setupRepeats is how many times a run sets up; setup_s is their median.
// A set-up takes a few milliseconds, so a hundred cost under a second and
// keep one slow process start from moving the median.
const setupRepeats = 101

// Seed streams: each input the seed generates draws from its own stream.
const (
	streamPairOrder = 1
	streamMixed     = 2
	streamWarm      = 16 // + client index
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// childSpec is one cold pass, as the parent hands it to the child.
type childSpec struct {
	Kind      string `json:"kind"` // "grid" or "paper"
	Root      string `json:"root"`
	Seed      uint64 `json:"seed"`
	Pairs     int    `json:"pairs,omitempty"`      // grid: run only the first Pairs of the shuffled grid
	SetupOnly bool   `json:"setup_only,omitempty"` // exit once set up
	Profile   string `json:"profile,omitempty"`    // CPU profile of the pass
	Trace     string `json:"trace,omitempty"`      // Chrome trace of the child's spans
}

// childResult is what a cold pass reports back.
type childResult struct {
	PassS       float64            `json:"pass_s"`
	RunMs       []float64          `json:"run_ms,omitempty"` // grid: each Session.Run
	PrefetchS   float64            `json:"prefetch_s,omitempty"`
	RenderS     float64            `json:"render_s,omitempty"`
	ExpS        map[string]float64 `json:"exp_s,omitempty"`
	Attempted   int                `json:"attempted"`
	Failures    []string           `json:"failures,omitempty"`
	Sims        uint64             `json:"sims"`
	Work        modelWork          `json:"work"`
	HeapSysMB   float64            `json:"heap_sys_mb"`
	OverheadErr float64            `json:"overhead_err"`
	BodySHA     string             `json:"body_sha256,omitempty"`
}

// modelWork sums the PMU counts of the pass's (workload, ABI) runs: the
// units the model layers' CPU time is divided by.
type modelWork struct {
	Uops          uint64 `json:"uops"`
	CacheAccesses uint64 `json:"cache_accesses"`
	TLBLookups    uint64 `json:"tlb_lookups"`
	TLBWalks      uint64 `json:"tlb_walks"`
	Branches      uint64 `json:"branches"`
	CapAccesses   uint64 `json:"cap_accesses"`
}

func (w *modelWork) add(d *experiments.RunData) {
	c := &d.Counters
	w.Uops += d.Uops
	w.CacheAccesses += c.Sum(pmu.L1I_CACHE, pmu.L1D_CACHE, pmu.L2D_CACHE, pmu.LL_CACHE_RD)
	w.TLBLookups += c.Sum(pmu.L1I_TLB, pmu.L1D_TLB)
	w.TLBWalks += c.Sum(pmu.ITLB_WALK, pmu.DTLB_WALK)
	w.Branches += c.Get(pmu.BR_RETIRED)
	w.CapAccesses += c.Sum(pmu.CAP_MEM_ACCESS_RD, pmu.CAP_MEM_ACCESS_WR)
}

// runGridCold: the 60-pair campaign grid, serially, in fresh processes.
func runGridCold(b *bench) error { return runCold(b, "grid") }

// runPaperCold: the -all campaign, at the CLI's default parallelism, in
// fresh processes.
func runPaperCold(b *bench) error { return runCold(b, "paper") }

func runCold(b *bench, kind string) error {
	spec := childSpec{Kind: kind, Root: b.root, Seed: b.seed, Pairs: b.gridPairs}
	if b.traced {
		return tracedCold(b, spec)
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		s := spec
		s.SetupOnly = true
		d, _, _, err := b.spawn(s)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	// Whole passes run until the budget is spent; a pass is never cut.
	var passes []childResult
	var secs, runs []float64
	var rss float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < b.seconds {
		_, res, mb, err := b.spawn(spec)
		if err != nil {
			return err
		}
		b.absorb(res)
		if len(passes) > 0 {
			first := passes[0]
			b.check(res.Work == first.Work, "pass %d ran %d µops, pass 1 ran %d", len(passes)+1, res.Work.Uops, first.Work.Uops)
			b.check(res.OverheadErr == first.OverheadErr, "pass %d overhead_err %v differs from pass 1 (%v)", len(passes)+1, res.OverheadErr, first.OverheadErr)
			b.check(res.BodySHA == first.BodySHA, "pass %d rendered body sha256 %s differs from pass 1 (%s)", len(passes)+1, res.BodySHA, first.BodySHA)
		}
		passes = append(passes, res)
		secs = append(secs, res.PassS)
		runs = append(runs, res.RunMs...)
		rss = max(rss, mb)
	}
	window := time.Since(start).Seconds()
	n := fmt.Sprintf("n=%d", len(secs))
	b.set("setup_s", median(setups), fmt.Sprintf("median of n=%d", len(setups)))
	b.set("cold_s", median(secs), "median pass of "+n)
	if kind == "grid" {
		// A grid request is one pair's Session.Run. The 60 pairs' times have
		// gaps of a third or more in their slowest tenth, so a percentile
		// there would jump between neighbours; their mean does not.
		b.setPercentile("p50_ms", runs, 50)
		b.set("tail_ms", slowestMean(runs, 0.1), fmt.Sprintf("mean of the slowest tenth of n=%d", len(runs)))
		b.set("per_s", float64(len(runs))/window, "Session.Run calls per second")
	} else {
		// A paper request is a whole pass: these restate cold_s.
		b.set("p50_ms", 1000*median(secs), "median pass of "+n)
		b.set("tail_ms", 1000*percentile(secs, 100), "slowest pass of "+n)
		b.set("per_s", float64(len(secs))/window, "passes per second")
	}
	b.set("peak_rss_mb", rss, "largest child maxrss")
	b.set("overhead_err", passes[0].OverheadErr, "")
	if kind == "grid" {
		b.set("sim_muops_per_s", float64(passes[0].Work.Uops)/median(secs)/1e6,
			fmt.Sprintf("Muops/s over the median pass of %d µops", passes[0].Work.Uops))
	}
	if sha := passes[0].BodySHA; sha != "" {
		b.notes["cold_s"] += ", body sha256 " + sha[:16]
	}
	return nil
}

// tracedCold runs one profiled pass (after one unprofiled grid pass, whose
// time trace.overhead_pct compares against) and fills the layer metrics.
func tracedCold(b *bench, spec childSpec) error {
	var plain float64
	if spec.Kind == "grid" {
		_, res, _, err := b.spawn(spec)
		if err != nil {
			return err
		}
		b.absorb(res)
		plain = res.PassS
	}
	spec.Profile = filepath.Join(b.traceDir, b.workload+".pprof")
	spec.Trace = filepath.Join(b.traceDir, b.workload+"-child.trace.json")
	sp := b.spans.Start(b.workload+" traced pass (child process)", nil)
	_, res, _, err := b.spawn(spec)
	sp.End()
	if err != nil {
		return err
	}
	b.absorb(res)
	split, err := splitProfiles([]string{spec.Profile})
	if err != nil {
		return err
	}
	m := b.metrics
	setCPU(m, split)
	setWork(m, split, res.Work)
	m["experiments.prefetch_s"] = res.PrefetchS
	m["experiments.render_s"] = res.RenderS
	m["experiments.run_ms_p50"] = median(res.RunMs)
	m["experiments.run_ms_max"] = percentile(res.RunMs, 100)
	m["experiments.sims"] = float64(res.Sims)
	for id, s := range res.ExpS {
		if _, ok := m["exp."+id+"_s"]; ok {
			m["exp."+id+"_s"] = s
		}
	}
	m["runtime.heap_peak_mb"] = res.HeapSysMB
	if plain > 0 {
		m["trace.overhead_pct"] = 100 * (res.PassS/plain - 1)
	}
	return nil
}

// setWork fills the model layers' exact work counts and CPU per unit.
func setWork(m map[string]float64, c cpuSplit, w modelWork) {
	m["core.uops"] = float64(w.Uops)
	m["core.ns_per_uop"] = perUnitNs(c, "core", float64(w.Uops))
	m["cache.accesses"] = float64(w.CacheAccesses)
	m["cache.ns_per_access"] = perUnitNs(c, "cache", float64(w.CacheAccesses))
	m["tlb.lookups"] = float64(w.TLBLookups)
	m["tlb.walks"] = float64(w.TLBWalks)
	m["tlb.ns_per_lookup"] = perUnitNs(c, "tlb", float64(w.TLBLookups))
	m["branch.resolved"] = float64(w.Branches)
	m["branch.ns_per_branch"] = perUnitNs(c, "branch", float64(w.Branches))
	m["mem.cap_accesses"] = float64(w.CapAccesses)
}

// absorb counts a child's operations and failures as the run's own.
func (b *bench) absorb(res childResult) {
	b.attempted += res.Attempted
	b.failures = append(b.failures, res.Failures...)
}

// spawn runs one child and returns how long it took to report ready (its
// set-up), its result and its peak RSS.
func (b *bench) spawn(spec childSpec) (time.Duration, childResult, float64, error) {
	var res childResult
	data, err := json.Marshal(spec)
	if err != nil {
		return 0, res, 0, err
	}
	cmd := exec.Command(b.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(data))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, res, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, res, 0, err
	}
	r := bufio.NewReader(out)
	line, _ := r.ReadString('\n')
	setup := time.Since(start)
	rest, _ := io.ReadAll(r)
	if err := cmd.Wait(); err != nil {
		return 0, res, 0, fmt.Errorf("%s pass child: %w", spec.Kind, err)
	}
	if line != "ready\n" {
		return 0, res, 0, fmt.Errorf("%s pass child: want a ready line, got %q", spec.Kind, line)
	}
	if !spec.SetupOnly {
		if err := json.Unmarshal(rest, &res); err != nil {
			return 0, res, 0, fmt.Errorf("%s pass child result: %w", spec.Kind, err)
		}
	}
	rssMB := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024 // KiB on Linux
	return setup, res, rssMB, nil
}

// childMain is a cold pass: set up, report ready, run the pass, check it,
// and print the result as JSON.
func childMain(specJSON string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "cheribench child:", err)
		return 1
	}
	res, err := coldPass(spec, stdout)
	if err == nil {
		if spec.SetupOnly {
			return 0
		}
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cheribench child:", err)
		return 1
	}
	return 0
}

func coldPass(spec childSpec, stdout io.Writer) (childResult, error) {
	var res childResult
	sess := experiments.NewSession(1)
	var base *golden.Baseline
	var exps []*experiments.Experiment
	var pairs []experiments.Pair
	switch spec.Kind {
	case "grid":
		sess.Jobs = 1
		var err error
		if base, err = golden.Load(filepath.Join(spec.Root, "testdata", "golden-scale1.json")); err != nil {
			return res, err
		}
		pairs = experiments.CampaignGrid()
	case "paper":
		sess.Jobs = runtime.GOMAXPROCS(0) // the experiments CLI's default
		exps = experiments.Renderable()
		pairs = experiments.UnionPairs(exps)
	default:
		return res, fmt.Errorf("unknown pass kind %q", spec.Kind)
	}
	r := newRand(spec.Seed, streamPairOrder)
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	full := spec.Pairs <= 0 || spec.Pairs >= len(pairs)
	if !full {
		pairs = pairs[:spec.Pairs]
	}
	fmt.Fprintln(stdout, "ready")
	if spec.SetupOnly {
		return res, nil
	}

	var spans *telemetry.Collector
	if spec.Trace != "" {
		spans = telemetry.NewCollector(1 << 12)
	}
	if spec.Profile != "" {
		f, err := os.Create(spec.Profile)
		if err != nil {
			return res, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return res, err
		}
		defer f.Close()
	}
	check := func(ok bool, format string, args ...any) {
		res.Attempted++
		if !ok {
			res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
		}
	}
	var body bytes.Buffer
	var failed []experiments.RenderError
	root := spans.Start(spec.Kind+" pass", nil)
	start := time.Now()
	if spec.Kind == "grid" {
		for _, p := range pairs {
			sp := spans.Start("Session.Run "+pairName(p), root)
			t := time.Now()
			d := sess.Run(p.Workload, p.ABI)
			res.RunMs = append(res.RunMs, ms(time.Since(t)))
			sp.End()
			check(d.Err == nil, "%s: %v", pairName(p), d.Err)
		}
	} else {
		sp := spans.Start("Session.Prefetch", root)
		sess.Prefetch(pairs)
		sp.End()
		res.PrefetchS = time.Since(start).Seconds()
		res.ExpS = map[string]float64{}
		renderStart := time.Now()
		last, next := renderStart, 0
		sp = spans.Start("experiment "+exps[0].ID, root)
		failed = experiments.RenderSelected(sess, &body, exps, func(e *experiments.Experiment, _ error) {
			now := time.Now()
			res.ExpS[e.ID] = now.Sub(last).Seconds()
			last = now
			sp.End()
			if next++; next < len(exps) {
				sp = spans.Start("experiment "+exps[next].ID, root)
			}
		})
		res.RenderS = time.Since(renderStart).Seconds()
	}
	res.PassS = time.Since(start).Seconds()
	root.End()
	if spec.Profile != "" {
		pprof.StopCPUProfile()
	}

	// Checks and counts, outside the timed pass.
	res.Sims = sess.Executions()
	for _, p := range pairs {
		res.Work.add(sess.Run(p.Workload, p.ABI)) // cached: no simulation
	}
	if spec.Kind == "grid" {
		if full {
			drifts := base.Diff(sess.MetricSnapshot())
			check(len(drifts) == 0, "grid: %d metrics drift from testdata/golden-scale1.json (first: %v)", len(drifts), firstOf(drifts))
		}
	} else {
		failedIDs := map[string]error{}
		for _, f := range failed {
			failedIDs[f.ID] = f.Err
		}
		for _, e := range exps {
			check(failedIDs[e.ID] == nil, "experiment %s failed: %v", e.ID, failedIDs[e.ID])
		}
		got := len(splitSections(body.Bytes()))
		check(got == len(exps), "rendered %d sections, want %d", got, len(exps))
		sum := sha256.Sum256(body.Bytes())
		res.BodySHA = hex.EncodeToString(sum[:])
	}
	if full {
		res.OverheadErr = overheadError(func(w *workloads.Workload, a abi.ABI) (float64, bool) {
			return round3(sess.Overhead(w, a)), true
		})
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.HeapSysMB = float64(mem.HeapSys) / (1 << 20)
	if spec.Trace != "" {
		if err := writeSpans(spec.Trace, spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

func pairName(p experiments.Pair) string { return p.Workload.Name + "/" + p.ABI.String() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func firstOf(d []golden.Drift) string {
	if len(d) == 0 {
		return ""
	}
	return d[0].String()
}

// overheadError is the mean absolute error of the simulated benchmark/hybrid
// and purecap/hybrid time ratios against the paper's Table 3 times, over
// every workload the paper reports times for (the QuickJS benchmark-ABI NA
// is skipped). ratio returns the simulated ratio as Figure 1 prints it.
// The model was tuned against these same times, so this is a fit error.
func overheadError(ratio func(*workloads.Workload, abi.ABI) (float64, bool)) float64 {
	var sum float64
	var n int
	for _, w := range workloads.All() {
		pt := w.PaperTimes
		if pt[0] <= 0 {
			continue
		}
		for i, a := range []abi.ABI{abi.Benchmark, abi.Purecap} {
			if pt[i+1] <= 0 {
				continue
			}
			sim, ok := ratio(w, a)
			if !ok {
				return -1
			}
			d := sim - pt[i+1]/pt[0]
			if d < 0 {
				d = -d
			}
			sum += d
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

// round3 rounds a ratio the way Figure 1 prints it (%.3f), so the value from
// a session and the value parsed from a rendered body agree exactly.
func round3(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 3, 64), 64)
	return v
}

// fig1OverheadError is overhead_err computed from a rendered Figure 1
// section; negative when a row is missing.
func fig1OverheadError(section []byte) float64 {
	rows := fig1Ratios(section)
	return overheadError(func(w *workloads.Workload, a abi.ABI) (float64, bool) {
		r, ok := rows[w.Name]
		if a == abi.Purecap {
			return r[1], ok
		}
		return r[0], ok
	})
}

// fig1Ratios reads the simulated ratios out of a rendered Figure 1 section:
// rows of "workload 1.000 benchmark-abi purecap paper(bench) paper(purecap)".
func fig1Ratios(section []byte) map[string][2]float64 {
	out := map[string][2]float64{}
	for _, line := range strings.Split(string(section), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[1] != "1.000" {
			continue
		}
		bench, err1 := strconv.ParseFloat(f[2], 64)
		pure, err2 := strconv.ParseFloat(f[3], 64)
		if err1 == nil && err2 == nil {
			out[f[0]] = [2]float64{bench, pure}
		}
	}
	return out
}
