package campaign

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"cherisim/internal/experiments"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
)

// newService builds an unstarted service over a fresh cache-fronted store,
// with no HTTP listener.
func newService(t *testing.T, hub *telemetry.Hub) *Service {
	t.Helper()
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.EnableAdmissionCache(0)
	svc := New(Config{Store: store, Hub: hub, Workers: 2, QueueDepth: 16})
	t.Cleanup(svc.Close)
	return svc
}

// startService is newService, started.
func startService(t *testing.T, hub *telemetry.Hub) *Service {
	svc := newService(t, hub)
	svc.Start()
	return svc
}

// runCampaign submits one campaign, waits for it and returns its sections.
func runCampaign(t *testing.T, svc *Service, exps ...string) [][]byte {
	t.Helper()
	c, err := svc.Submit(Spec{Tenant: "share", Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	secs, _ := c.sections()
	if len(secs) != len(exps) {
		t.Fatalf("campaign %v rendered %d sections", exps, len(secs))
	}
	return secs
}

// storelessRender renders exps the way cmd/experiments does.
func storelessRender(t *testing.T, ids ...string) []byte {
	t.Helper()
	exps, err := experiments.Select(ids)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if failed := experiments.RenderSelected(experiments.NewSession(1), &out, exps, nil); len(failed) != 0 {
		t.Fatalf("reference render failed: %v", failed)
	}
	return out.Bytes()
}

// TestWarmCampaignsShareOneBody: campaigns that render the same section
// point at one exact-length copy of it. Warm campaigns of one spec hold
// the same sections, a campaign over two earlier selections holds both of
// theirs, and its assembled body is the storeless render.
func TestWarmCampaignsShareOneBody(t *testing.T) {
	svc := startService(t, nil)
	table1 := runCampaign(t, svc, "table1")[0] // cold
	fig2 := runCampaign(t, svc, "fig2")[0]
	if bytes.Equal(table1, fig2) {
		t.Fatal("table1 and fig2 rendered the same section")
	}
	if warm := runCampaign(t, svc, "table1")[0]; &warm[0] != &table1[0] {
		t.Error("two campaigns of one spec hold separate table1 sections")
	}

	c, err := svc.Submit(Spec{Tenant: "share", Experiments: []string{"table1", "fig2"}})
	if err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	secs, _ := c.sections()
	if len(secs) != 2 || &secs[0][0] != &table1[0] || &secs[1][0] != &fig2[0] {
		t.Error("a [table1, fig2] campaign does not point at the table1 and fig2 sections")
	}
	for i, sec := range secs {
		if len(sec) != cap(sec) {
			t.Errorf("section %d: len %d, cap %d: want no slack", i, len(sec), cap(sec))
		}
	}
	body, _ := c.Result()
	if !bytes.Equal(body, storelessRender(t, "table1", "fig2")) {
		t.Error("assembled body differs from a storeless render")
	}
}

// retentionGauges reads campaigns_retained, campaign_sections and
// campaign_section_bytes.
func retentionGauges(hub *telemetry.Hub) [3]int64 {
	m := hub.Metrics
	return [3]int64{m.Gauge("campaigns_retained").Value(), m.Gauge("campaign_sections").Value(), m.Gauge("campaign_section_bytes").Value()}
}

// TestRetentionGauges: /metrics counts the campaigns the service holds,
// the distinct sections they point at, and those sections' bytes.
func TestRetentionGauges(t *testing.T) {
	hub := telemetry.New()
	svc := startService(t, hub)
	var table1 []byte
	for i := 0; i < 3; i++ { // one cold campaign, two warm ones
		table1 = runCampaign(t, svc, "table1")[0]
	}
	if got, want := retentionGauges(hub), [3]int64{3, 1, int64(len(table1))}; got != want {
		t.Errorf("after three table1 campaigns, gauges = %v, want %v", got, want)
	}
	fig2 := runCampaign(t, svc, "fig2")[0]
	if got, want := retentionGauges(hub), [3]int64{4, 2, int64(len(table1) + len(fig2))}; got != want {
		t.Errorf("after a fig2 campaign, gauges = %v, want %v", got, want)
	}
}

// get returns the status code of a GET to ts.
func get(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRetentionEvictsOldestFinished: past the retention bound the campaign
// that finished first is evicted. Its ID answers 410 on every campaign
// route, it leaves the listing and the gauge, and a section no retained
// campaign holds any more is freed.
func TestRetentionEvictsOldestFinished(t *testing.T) {
	hub := telemetry.New()
	svc := newService(t, hub)
	svc.retain = 2
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	runCampaign(t, svc, "table1") // c1
	runCampaign(t, svc, "fig2")   // c2
	fig2 := runCampaign(t, svc, "fig2")[0]
	if got, want := retentionGauges(hub), [3]int64{2, 1, int64(len(fig2))}; got != want {
		t.Errorf("after evicting the table1 campaign, gauges = %v, want %v", got, want)
	}
	for _, path := range []string{"/campaigns/c1", "/campaigns/c1/result", "/campaigns/c1/events"} {
		if code := get(t, ts, path); code != http.StatusGone {
			t.Errorf("GET %s = %d, want 410", path, code)
		}
	}
	for _, path := range []string{"/campaigns/c2", "/campaigns/c3/result"} {
		if code := get(t, ts, path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
	}
	for _, id := range []string{"c4", "c0", "c01", "x1", "c"} {
		if code := get(t, ts, "/campaigns/"+id); code != http.StatusNotFound {
			t.Errorf("GET /campaigns/%s = %d, want 404", id, code)
		}
	}
	var ids []string
	for _, c := range svc.List() {
		ids = append(ids, c.ID)
	}
	if want := []string{"c2", "c3"}; !eq(ids, want) {
		t.Errorf("listed %v, want %v", ids, want)
	}
}

// TestConcurrentCampaignsShareAndEvict: runners finishing, sharing and
// evicting at once over a small bound while clients read results. Every
// read is the storeless render or a 410, and once all campaigns are done
// the section table holds exactly the retained campaigns' sections.
func TestConcurrentCampaignsShareAndEvict(t *testing.T) {
	hub := telemetry.New()
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.EnableAdmissionCache(0)
	svc := New(Config{Store: store, Hub: hub, Workers: 2, Runners: 3, QueueDepth: 16})
	svc.retain = 3
	svc.Start()
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	specs := [][]string{{"table1"}, {"fig2"}, {"table1", "fig2"}}
	want := make([][]byte, len(specs))
	for i, ids := range specs {
		want[i] = storelessRender(t, ids...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (g + i) % len(specs)
				c, err := svc.Submit(Spec{Tenant: fmt.Sprintf("t%d", g), Experiments: specs[k]})
				if err != nil {
					t.Error(err)
					return
				}
				<-c.Done()
				resp, err := http.Get(ts.URL + "/campaigns/" + c.ID + "/result")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Error(err)
				case resp.StatusCode == http.StatusOK && !bytes.Equal(body, want[k]):
					t.Errorf("%s %v: body differs from the storeless render", c.ID, specs[k])
				case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGone:
					t.Errorf("%s: result = %d", c.ID, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()

	retained := svc.List()
	held := map[*byte]int{}
	for _, c := range retained {
		secs, _ := c.sections()
		for _, sec := range secs {
			held[&sec[0]] = len(sec)
		}
	}
	n := 0
	for _, size := range held {
		n += size
	}
	if got, want := retentionGauges(hub), [3]int64{3, int64(len(held)), int64(n)}; len(retained) != 3 || got != want {
		t.Errorf("%d retained; gauges = %v, want %v", len(retained), got, want)
	}
}

// TestRetentionNeverEvictsLiveCampaigns: the bound counts finished
// campaigns only; queued ones outlive any number of evictions.
func TestRetentionNeverEvictsLiveCampaigns(t *testing.T) {
	svc := newService(t, nil)
	svc.retain = 0
	var cs []*Campaign
	for i := 0; i < 3; i++ {
		c, err := svc.Submit(Spec{Experiments: []string{"fig2"}})
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	svc.retire(cs[0])
	if _, ok := svc.Get("c1"); ok || !svc.evicted("c1") {
		t.Error("a finished campaign over a bound of 0 was kept")
	}
	for _, id := range []string{"c2", "c3"} {
		if _, ok := svc.Get(id); !ok {
			t.Errorf("queued campaign %s was evicted", id)
		}
	}
}

// TestPackedHistoryMatchesLive: a finished campaign's packed history
// rebuilds the events it was built from, error texts included.
func TestPackedHistoryMatchesLive(t *testing.T) {
	exps, err := experiments.Select([]string{"table1", "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	c := newCampaign(7, Spec{Tenant: "t", Experiments: []string{"table1", "fig2"}}, exps)
	c.event(Event{Kind: "started"})
	c.event(Event{Kind: "experiment", Experiment: "table1", Err: "boom"})
	c.event(Event{Kind: "experiment", Experiment: "fig2"})
	live, _ := c.eventsSince(0)
	live = append([]Event(nil), live...)
	close(c.done)
	at := c.finish(Event{Kind: "done", Err: "1 of 2 experiments failed"})

	got, wake := c.eventsSince(0)
	if len(got) != len(live)+1 {
		t.Fatalf("packed history holds %d events, want %d", len(got), len(live)+1)
	}
	for i, ev := range live {
		if got[i] != ev {
			t.Errorf("event %d: packed %+v, live %+v", i+1, got[i], ev)
		}
	}
	if done := got[len(live)]; done.Seq != 5 || done.Kind != "done" || done.Err != "1 of 2 experiments failed" || !done.At.Equal(at) {
		t.Errorf("done event = %+v", done)
	}
	if rest, _ := c.eventsSince(3); len(rest) != 2 || rest[0] != got[3] {
		t.Errorf("eventsSince(3) = %+v", rest)
	}
	select {
	case <-wake:
	default:
		t.Error("a finished campaign's feed channel is open")
	}
	if c.Spec.Experiments != nil || c.Spec.Tenant != "t" || c.Status().Events != 5 {
		t.Errorf("finished campaign kept %+v, %d events", c.Spec, c.Status().Events)
	}
}

// readFeed reads an SSE response to its end, after the first event block
// when started is set.
func readFeed(t *testing.T, ts *httptest.Server, id string, started func()) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	r := bufio.NewReader(resp.Body)
	if started != nil {
		for { // the queued event, sent before the campaign starts
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			out.WriteString(line)
			if line == "\n" {
				break
			}
		}
		started()
	}
	if _, err := io.Copy(&out, r); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestFeedAfterDoneMatchesLive: the SSE feed of a finished campaign, read
// from its packed history, is byte-identical to the feed captured live.
func TestFeedAfterDoneMatchesLive(t *testing.T) {
	svc := newService(t, nil)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	st := postCampaign(t, ts, `{"tenant":"sse","experiments":["table1","fig2"]}`)
	live := readFeed(t, ts, st.ID, svc.Start)
	if after := readFeed(t, ts, st.ID, nil); !bytes.Equal(after, live) {
		t.Errorf("feed after done differs from the live feed:\n%s\nwant:\n%s", after, live)
	}
	if n := bytes.Count(live, []byte("event: progress\n")); n != 5 {
		t.Errorf("live feed carries %d events, want 5", n)
	}
}

// TestFinishedCampaignHeap: a finished warm campaign costs well under a
// kilobyte of retained heap. Keeping its full event history and an
// unshared copy of its selection costs more.
func TestFinishedCampaignHeap(t *testing.T) {
	const (
		campaigns = 2000
		bound     = 1024 // bytes of in-use heap per finished campaign
	)
	svc := startService(t, nil)
	specs := [][]string{{"table1", "fig2"}, {"table1"}, {"fig2"}, {"fig2"}}
	run := func(exps []string) {
		c, err := svc.Submit(Spec{Tenant: "heap", Experiments: append([]string(nil), exps...)})
		if err != nil {
			t.Fatal(err)
		}
		<-c.Done()
	}
	for _, exps := range specs { // cold
		run(exps)
	}
	inUse := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := inUse()
	for i := 0; i < campaigns; i++ {
		run(specs[i%len(specs)])
	}
	if per := (inUse() - before) / campaigns; per > bound {
		t.Errorf("each finished campaign retains %d bytes of heap, want at most %d", per, bound)
	}
}

// TestCampaignMetrics: each 429 counts on campaign_rejected, and every
// campaign observes its queue wait and run time once; without a hub the
// same traffic records nothing and does not fail.
func TestCampaignMetrics(t *testing.T) {
	for _, hub := range []*telemetry.Hub{telemetry.New(), nil} {
		svc := newService(t, hub)
		svc.cfg.QueueDepth = 1
		c, err := svc.Submit(Spec{Experiments: []string{"fig2"}})
		if err != nil {
			t.Fatal(err)
		}
		var full *ErrQueueFull
		if _, err := svc.Submit(Spec{Experiments: []string{"fig2"}}); !errors.As(err, &full) {
			t.Fatalf("over-depth submission: %v, want ErrQueueFull", err)
		}
		time.Sleep(2 * time.Millisecond) // a measurable queue wait
		svc.Start()
		<-c.Done()
		svc.Close()
		if hub == nil {
			continue
		}
		counts := map[string]int64{}
		var wait float64
		for _, p := range hub.Metrics.Snapshot() {
			counts[p.Name] = p.Value + p.Count
			if p.Name == "campaign_queue_wait_ms" {
				wait = p.Sum
			}
		}
		for name, want := range map[string]int64{"campaign_rejected": 1, "campaign_queue_wait_ms": 1, "campaign_run_ms": 1} {
			if counts[name] != want {
				t.Errorf("%s = %d, want %d", name, counts[name], want)
			}
		}
		if wait < 2 {
			t.Errorf("queue wait %.3f ms, want at least the 2 ms before Start", wait)
		}
	}
}
