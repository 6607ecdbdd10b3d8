package campaign

import (
	"bytes"
	"testing"

	"cherisim/internal/experiments"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
)

// startService starts a service over a fresh cache-fronted store, with no
// HTTP listener.
func startService(t *testing.T, hub *telemetry.Hub) *Service {
	t.Helper()
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.EnableAdmissionCache(0)
	svc := New(Config{Store: store, Hub: hub, Workers: 2})
	svc.Start()
	t.Cleanup(svc.Close)
	return svc
}

// runCampaign submits one campaign and waits for its body.
func runCampaign(t *testing.T, svc *Service, exps ...string) []byte {
	t.Helper()
	c, err := svc.Submit(Spec{Tenant: "share", Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	body, _ := c.Result()
	if len(body) == 0 {
		t.Fatalf("campaign %v rendered nothing", exps)
	}
	return body
}

// TestWarmCampaignsShareOneBody: campaigns that render the same bytes
// point at one exact-length copy of them; a campaign that renders other
// bytes keeps its own.
func TestWarmCampaignsShareOneBody(t *testing.T) {
	svc := startService(t, nil)
	runCampaign(t, svc, "table1") // cold
	a, b := runCampaign(t, svc, "table1"), runCampaign(t, svc, "table1")
	if &a[0] != &b[0] {
		t.Error("two warm campaigns of one spec hold separate bodies")
	}
	if len(a) != cap(a) {
		t.Errorf("shared body len %d, cap %d: want no slack", len(a), cap(a))
	}
	exps, err := experiments.Select([]string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if failed := experiments.RenderSelected(experiments.NewSession(1), &want, exps, nil); len(failed) != 0 {
		t.Fatalf("reference render failed: %v", failed)
	}
	if !bytes.Equal(a, want.Bytes()) {
		t.Error("shared body differs from a storeless render")
	}

	other := runCampaign(t, svc, "fig2")
	if &other[0] == &a[0] || bytes.Equal(other, a) {
		t.Error("a campaign of another spec shares the table1 body")
	}
}

// TestRetentionGauges: /metrics counts the campaigns the service holds,
// the distinct bodies they point at, and those bodies' bytes.
func TestRetentionGauges(t *testing.T) {
	hub := telemetry.New()
	svc := startService(t, hub)
	gauges := func() [3]int64 {
		m := hub.Metrics
		return [3]int64{m.Gauge("campaigns_retained").Value(), m.Gauge("campaign_bodies").Value(), m.Gauge("campaign_body_bytes").Value()}
	}
	var body []byte
	for i := 0; i < 3; i++ { // one cold campaign, two warm ones
		body = runCampaign(t, svc, "table1")
	}
	if got, want := gauges(), [3]int64{3, 1, int64(len(body))}; got != want {
		t.Errorf("after three table1 campaigns, gauges = %v, want %v", got, want)
	}
	other := runCampaign(t, svc, "fig2")
	if got, want := gauges(), [3]int64{4, 2, int64(len(body) + len(other))}; got != want {
		t.Errorf("after a fig2 campaign, gauges = %v, want %v", got, want)
	}
}
