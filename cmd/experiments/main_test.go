package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cherisim/internal/experiments"
	"cherisim/internal/golden"
	"cherisim/internal/resultstore"
)

// TestSessionConfigValidation pins the flag-validation contract: negative
// -jobs, -retries, -deadline and -chaos-rate, a zero rate with chaos
// enabled, and unknown fault kinds are all rejected with a descriptive
// error, while legal configurations build the expected session settings.
func TestSessionConfigValidation(t *testing.T) {
	cases := []struct {
		name     string
		jobs     int
		chaos    string
		rate     float64
		deadline int64
		retries  int
		wantErr  string
	}{
		{name: "negative jobs", jobs: -1, rate: 400, retries: 2, wantErr: "-jobs"},
		{name: "negative retries", rate: 400, retries: -3, wantErr: "-retries"},
		{name: "negative deadline", rate: 400, deadline: -1, retries: 2, wantErr: "-deadline"},
		{name: "negative rate", rate: -0.5, retries: 2, wantErr: "-chaos-rate"},
		{name: "negative rate without chaos", chaos: "", rate: -400, retries: 2, wantErr: "-chaos-rate"},
		{name: "zero rate with chaos", chaos: "all", rate: 0, retries: 2, wantErr: "-chaos-rate"},
		{name: "unknown kind", chaos: "tag-clear,bogus", rate: 400, retries: 2, wantErr: "bogus"},
		{name: "defaults", jobs: 4, rate: 400, retries: 2},
		{name: "zero rate chaos off", rate: 0, retries: 2},
		{name: "chaos all", chaos: "all", rate: 200, deadline: 1 << 20, retries: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := sessionConfig(tc.jobs, tc.chaos, tc.rate, 1, tc.deadline, tc.retries)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("sessionConfig accepted %+v", tc)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not name %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
			if cfg.jobs != tc.jobs || cfg.retries != tc.retries || cfg.deadline != uint64(tc.deadline) {
				t.Fatalf("config %+v does not reflect inputs", cfg)
			}
			if (tc.chaos != "") != (cfg.chaos != nil) {
				t.Fatalf("chaos config presence mismatch for %q", tc.chaos)
			}
		})
	}
}

// TestScaleConfigValidation pins the scale-sweep flag contract: -topology
// and -cores demand -run scale, unknown topologies and non-positive or
// out-of-range core counts are rejected with descriptive errors, and legal
// values parse into the session's sweep axes (topology names normalized).
func TestScaleConfigValidation(t *testing.T) {
	cases := []struct {
		name       string
		topology   string
		cores      string
		run        string
		wantErr    string
		wantTopos  []string
		wantCounts []int
	}{
		{name: "unset is inert", run: ""},
		{name: "topology without -run scale", topology: "mesh", run: "", wantErr: "-run scale"},
		{name: "cores without -run scale", cores: "16", run: "security", wantErr: "-run scale"},
		{name: "unknown topology", topology: "mesh,torus", run: "scale", wantErr: "torus"},
		{name: "non-integer cores", cores: "16,lots", run: "scale", wantErr: "lots"},
		{name: "zero cores", cores: "0", run: "scale", wantErr: "outside"},
		{name: "negative cores", cores: "-4", run: "scale", wantErr: "outside"},
		{name: "cores beyond fabric max", cores: "2048", run: "scale", wantErr: "outside"},
		{name: "both axes", topology: "Mesh, ring", cores: "16,64", run: "scale",
			wantTopos: []string{"mesh", "ring"}, wantCounts: []int{16, 64}},
		{name: "cores alone", cores: "4", run: "scale", wantCounts: []int{4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topos, counts, err := scaleConfig(tc.topology, tc.cores, tc.run)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("scaleConfig accepted %+v", tc)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not name %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
			if fmt.Sprint(topos) != fmt.Sprint(tc.wantTopos) || fmt.Sprint(counts) != fmt.Sprint(tc.wantCounts) {
				t.Fatalf("parsed (%v, %v), want (%v, %v)", topos, counts, tc.wantTopos, tc.wantCounts)
			}
		})
	}
}

// TestRunCampaignDegradedMode drives the full campaign with a 1-µop
// watchdog budget so every measured run deadline-aborts: the exit code
// must be non-zero, the stderr summary must list every failed experiment
// exactly once with a matching header count, and the experiments that
// render without session measurements must still reach stdout.
func TestRunCampaignDegradedMode(t *testing.T) {
	s := experiments.NewSession(1)
	s.Jobs = 2
	s.DeadlineUops = 1 // every quantum check trips the watchdog immediately

	var stdout, stderr bytes.Buffer
	if code := runCampaign(s, &stdout, &stderr); code == 0 {
		t.Fatal("campaign with a 1-µop deadline reported success")
	}

	valid := map[string]bool{}
	for _, e := range experiments.Renderable() {
		valid[e.ID] = true
	}

	sc := bufio.NewScanner(&stderr)
	if !sc.Scan() {
		t.Fatal("empty stderr summary")
	}
	var n, total int
	if _, err := fmt.Sscanf(sc.Text(), "experiments: %d of %d experiments failed:", &n, &total); err != nil {
		t.Fatalf("malformed summary header %q: %v", sc.Text(), err)
	}
	if n == 0 || total != len(experiments.Renderable()) {
		t.Fatalf("summary header %q: want >0 failures of %d", sc.Text(), len(experiments.Renderable()))
	}
	seen := map[string]bool{}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			t.Fatalf("malformed summary line %q", sc.Text())
		}
		id := fields[0]
		if !valid[id] {
			t.Fatalf("summary names unknown experiment %q", id)
		}
		if seen[id] {
			t.Fatalf("experiment %q listed more than once", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("header says %d failures, summary lists %d", n, len(seen))
	}

	rendered := renderedHeaders(stdout.String())
	if rendered != total-n {
		t.Fatalf("%d experiments rendered, want %d (total %d - failed %d)",
			rendered, total-n, total, n)
	}
	for id := range seen {
		if strings.Contains(stdout.String(), "== "+id+":") {
			t.Fatalf("failed experiment %q also rendered to stdout", id)
		}
	}
}

// allScale1 is the committed scale-1 -all output: the contract every change
// keeps byte for byte unless it says why the output moves.
const allScale1 = "../../testdata/all-scale1.txt"

var update = flag.Bool("update", false, "rewrite testdata/all-scale1.txt from this build's -all render")

// TestRunCampaignSuccessExitCode is the inverse guard: an unconstrained
// campaign renders everything, writes nothing to stderr, and returns 0. Its
// stdout must equal testdata/all-scale1.txt (go test -run
// TestRunCampaignSuccessExitCode -update rewrites the file).
func TestRunCampaignSuccessExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign render in -short mode")
	}
	s := experiments.NewSession(1)
	var stdout, stderr bytes.Buffer
	if code := runCampaign(s, &stdout, &stderr); code != 0 {
		t.Fatalf("healthy campaign exited %d; stderr:\n%s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("healthy campaign wrote to stderr:\n%s", stderr.String())
	}
	if got := renderedHeaders(stdout.String()); got != len(experiments.Renderable()) {
		t.Fatalf("%d experiments rendered, want %d", got, len(experiments.Renderable()))
	}
	if *update {
		if err := os.WriteFile(allScale1, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(allScale1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("-all output differs from %s at line %d; if the change is intended, rerun with -update and explain it",
			allScale1, firstDiffLine(stdout.Bytes(), want))
	}
}

// firstDiffLine returns the 1-based number of the first line where a and b
// differ.
func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return len(la) + 1
}

// renderedHeaders counts the "== id: title (section) ==" banner lines
// RenderAll emits, one per successfully rendered experiment.
func renderedHeaders(out string) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==") {
			n++
		}
	}
	return n
}

// TestBaselineConfigValidation pins the golden-gate flag contract:
// -update-baseline without a file and -baseline combined with -run are
// rejected before any work runs.
func TestBaselineConfigValidation(t *testing.T) {
	cases := []struct {
		name     string
		baseline string
		update   bool
		run      string
		wantErr  string
	}{
		{name: "update without file", update: true, wantErr: "-baseline"},
		{name: "baseline with run", baseline: "g.json", run: "fig1", wantErr: "-run"},
		{name: "update with run", baseline: "g.json", update: true, run: "fig1", wantErr: "-run"},
		{name: "gate alone", baseline: "g.json"},
		{name: "update alone", baseline: "g.json", update: true},
		{name: "nothing", run: "fig1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := baselineConfig(tc.baseline, tc.update, tc.run)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid combination rejected: %v", err)
			}
		})
	}
}

// TestGateBaselineRoundTrip drives the updater and the gate through one
// real (stored) campaign: capture exits clean, a re-gate against the fresh
// file passes, a tampered value drifts with exit code 1, and a scale
// mismatch is refused.
func TestGateBaselineRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign grid")
	}
	dir := t.TempDir()
	store, err := resultstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	newStoredSession := func() *experiments.Session {
		s := experiments.NewSession(1)
		s.Store = store
		return s
	}
	path := filepath.Join(dir, "golden.json")

	var stderr bytes.Buffer
	if code := gateBaseline(newStoredSession(), nil, path, true, &stderr); code != 0 {
		t.Fatalf("capture exited %d: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := gateBaseline(newStoredSession(), nil, path, false, &stderr); code != 0 {
		t.Fatalf("clean gate exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "within tolerance") {
		t.Errorf("clean gate did not report tolerance: %s", stderr.String())
	}

	b, err := golden.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b.Entries {
		v["ipc"] += 1
		break
	}
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := gateBaseline(newStoredSession(), nil, path, false, &stderr); code != 1 {
		t.Fatalf("drifted gate exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "ipc") {
		t.Errorf("drift report does not name the metric: %s", stderr.String())
	}

	b.Scale = 9
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := gateBaseline(newStoredSession(), nil, path, false, &stderr); code != 1 {
		t.Fatalf("scale-mismatched gate exited %d", code)
	}
	if !strings.Contains(stderr.String(), "scale") {
		t.Errorf("scale refusal not reported: %s", stderr.String())
	}
}
