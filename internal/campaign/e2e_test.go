package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cherisim/internal/experiments"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
)

// bootService starts a campaign service over a cache-fronted store and a
// loopback HTTP server.
func bootService(t *testing.T, dir string) (*Service, *httptest.Server, *resultstore.Store) {
	return bootServiceRunners(t, dir, 1)
}

// bootServiceRunners is bootService with the given number of concurrent
// campaign runners.
func bootServiceRunners(t *testing.T, dir string, runners int) (*Service, *httptest.Server, *resultstore.Store) {
	t.Helper()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.EnableAdmissionCache(resultstore.DefaultCacheBytes)
	svc := New(Config{Store: store, Hub: telemetry.New(), Workers: 2, Runners: runners, QueueDepth: 4})
	svc.Start()
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, store
}

// postCampaign submits a spec and decodes the 202 status.
func postCampaign(t *testing.T, ts *httptest.Server, spec string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitDone polls the status endpoint until the campaign completes.
func awaitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("campaign did not complete in time")
	return Status{}
}

// fetchResult GETs the rendered body.
func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestCampaignE2E is the tentpole acceptance test: boot the service on a
// loopback listener, submit a campaign, poll it to completion, and check
// the rendered body byte-identical against the in-process render the CLI
// performs. table4's purecap-benchmark runs are derived from its purecap
// executions on the cold campaign. A warm resubmission must then be served
// entirely from the admission cache: zero simulations, zero derivations,
// zero disk reads, identical bytes.
func TestCampaignE2E(t *testing.T) {
	_, ts, _ := bootService(t, t.TempDir())

	cold := postCampaign(t, ts, `{"tenant":"e2e","experiments":["table1","table4"]}`)
	if cold.State != StateQueued && cold.State != StateRunning {
		t.Fatalf("submitted state = %s", cold.State)
	}
	coldSt := awaitDone(t, ts, cold.ID)
	if len(coldSt.Failed) != 0 {
		t.Fatalf("cold campaign failed: %v", coldSt.Failed)
	}
	if coldSt.Sims == 0 || coldSt.Store.Writes == 0 {
		t.Errorf("cold campaign: sims = %d, writes = %d, want both > 0", coldSt.Sims, coldSt.Store.Writes)
	}
	if coldSt.Derived == 0 {
		t.Error("cold campaign derived no runs")
	}
	body := fetchResult(t, ts, cold.ID)

	// Byte-identity against the render path cmd/experiments -all drives:
	// same experiments, fresh storeless session, same writer framing.
	exps, err := experiments.Select([]string{"table1", "table4"})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if failed := experiments.RenderSelected(experiments.NewSession(1), &want, exps, nil); len(failed) != 0 {
		t.Fatalf("reference render failed: %v", failed)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("campaign body (%d bytes) differs from the CLI render (%d bytes)", len(body), want.Len())
	}

	// Warm resubmission: served from the admission cache, not disk, not
	// the simulator.
	warm := postCampaign(t, ts, `{"tenant":"e2e","experiments":["table1","table4"]}`)
	warmSt := awaitDone(t, ts, warm.ID)
	if warmSt.Sims != 0 || warmSt.Derived != 0 {
		t.Errorf("warm campaign simulated %d and derived %d runs, want 0 and 0", warmSt.Sims, warmSt.Derived)
	}
	if st := warmSt.Store; st.Misses != 0 || st.Hits != 0 || st.MemHits == 0 {
		t.Errorf("warm store delta = %+v, want 0 misses, 0 disk hits, > 0 mem hits", st)
	}
	if !bytes.Equal(fetchResult(t, ts, warm.ID), body) {
		t.Error("warm body differs from cold body")
	}
}

// TestConcurrentTenantsSimulateOnce: two tenants submit the same cold
// ext-sweep at once. Every kernel key executes once on the shared fleet —
// the second tenant joins the execution in flight or is served by the
// store — so their sims add up to the experiment's 14 kernels, and both
// bodies are identical.
func TestConcurrentTenantsSimulateOnce(t *testing.T) {
	_, ts, _ := bootServiceRunners(t, t.TempDir(), 2)
	a := postCampaign(t, ts, `{"tenant":"a","experiments":["ext-sweep"]}`)
	b := postCampaign(t, ts, `{"tenant":"b","experiments":["ext-sweep"]}`)
	stA, stB := awaitDone(t, ts, a.ID), awaitDone(t, ts, b.ID)
	if len(stA.Failed)+len(stB.Failed) != 0 {
		t.Fatalf("campaigns failed: %v %v", stA.Failed, stB.Failed)
	}
	if sims := stA.Sims + stB.Sims; sims != 14 {
		t.Errorf("tenants simulated %d + %d kernels, want 14 in total", stA.Sims, stB.Sims)
	}
	if !bytes.Equal(fetchResult(t, ts, a.ID), fetchResult(t, ts, b.ID)) {
		t.Error("tenants received different bodies for the same campaign")
	}
}

// TestHTTPBackpressure pins the 429 + Retry-After surface on a service
// whose runners were never started (so queued work cannot drain).
func TestHTTPBackpressure(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Store: store, Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	postCampaign(t, ts, `{"tenant":"bp","experiments":["table1"]}`)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"tenant":"bp","experiments":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive hint", ra)
	}

	// Client errors keep their 400 surface.
	bad, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"experiments":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid submit = %d, want 400", bad.StatusCode)
	}
}

// TestEventsFeed follows a campaign's SSE stream: history replays, the
// experiment progress event arrives, and the stream terminates on "done".
func TestEventsFeed(t *testing.T) {
	_, ts, _ := bootService(t, t.TempDir())
	st := postCampaign(t, ts, `{"tenant":"sse","experiments":["table1"]}`)

	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		kinds = append(kinds, eventLabel(ev))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "started", "experiment:table1", "done"}
	if !eq(kinds, want) {
		t.Errorf("event stream = %v, want %v", kinds, want)
	}

	resp404, err := http.Get(ts.URL + "/campaigns/zzz/events")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign events = %d, want 404", resp404.StatusCode)
	}
}

func eventLabel(ev Event) string {
	if ev.Kind == "experiment" {
		return fmt.Sprintf("experiment:%s", ev.Experiment)
	}
	return ev.Kind
}

// TestResultBeforeDone pins the not-yet-done result surface (409 + retry
// hint), using an unstarted service so the campaign provably stays queued.
func TestResultBeforeDone(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Store: store})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	st := postCampaign(t, ts, `{"experiments":["table1"]}`)
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("pending result = %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("pending result missing Retry-After")
	}
}
