// Command campaignd serves the measurement campaign engine as a sharded
// multi-tenant HTTP service: tenants submit campaign specs (the same
// experiment/scale/attack/topology selections cmd/experiments takes as
// flags), the daemon schedules them across one shared simulation-worker
// fleet with per-tenant weighted round-robin fairness and bounded-queue
// backpressure, and rendered results — byte-identical to the equivalent
// cmd/experiments invocation — are served from a persistent result store
// fronted by an in-memory admission cache, so a warm resubmission performs
// zero simulations and zero disk reads. The cache holds each entry decoded
// and validated once, on admission, and hands every hit a private copy;
// -cache-mb budgets the entries' encoded bytes. A campaign's body is the
// ordered list of its experiments' sections, and campaigns share one
// immutable copy of each distinct section; a finished campaign packs its
// event history. The daemon retains the 65,536 most recently finished
// campaigns and answers 410 Gone for an evicted one. /metrics reports
// campaigns_retained, campaign_sections, campaign_section_bytes,
// campaign_rejected (429s) and the campaign_queue_wait_ms and
// campaign_run_ms histograms. A submission is one JSON object of at most
// 1 MiB (413 over it, 400 for anything after the object).
//
// Usage:
//
//	campaignd -http :8080 -store /var/lib/cherisim-store
//	campaignd -http :8080 -store s -workers 8 -depth 16 -weights team-a=3,team-b=1
//
//	curl -XPOST localhost:8080/campaigns -d '{"tenant":"team-a","experiments":["table1"]}'
//	curl localhost:8080/campaigns/c1            # status (state, sims, derived, store delta)
//	curl localhost:8080/campaigns/c1/result     # rendered body
//	curl -N localhost:8080/campaigns/c1/events  # SSE progress feed
//
// SIGINT/SIGTERM drain gracefully: in-flight campaigns finish, in-flight
// HTTP responses complete, queued-but-unstarted campaigns are dropped.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"cherisim/internal/campaign"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

func run() error {
	httpAddr := flag.String("http", ":8080", "listen address for the campaign API and ops endpoints")
	storeDir := flag.String("store", "", "persistent result-store directory (required)")
	cacheMB := flag.Int64("cache-mb", 64, "in-memory admission cache budget in MiB (0 disables)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "shared simulation-worker fleet size")
	runners := flag.Int("runners", 2, "campaigns executing concurrently (they share the worker fleet)")
	depth := flag.Int("depth", 8, "per-tenant queue depth; submissions over it get 429 + Retry-After")
	maxScale := flag.Int("max-scale", campaign.DefaultMaxScale, "largest workload scale a submission may request")
	weights := flag.String("weights", "", `per-tenant fairness weights, e.g. "team-a=3,team-b=1" (unlisted tenants weigh 1)`)
	logLevel := flag.String("log-level", "info", "structured log level on stderr (debug, info, warn, error; empty = silent)")
	logJSON := flag.Bool("log-json", false, "structured logs as JSON lines instead of text")
	flag.Parse()

	if *storeDir == "" {
		return fmt.Errorf("-store DIR is required (the service exists to serve warm results)")
	}
	store, err := resultstore.Open(*storeDir)
	if err != nil {
		return err
	}
	if *cacheMB > 0 {
		store.EnableAdmissionCache(*cacheMB << 20)
	}
	w, err := campaign.ParseWeights(*weights)
	if err != nil {
		return err
	}

	hub := telemetry.New()
	log, err := telemetry.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	hub.Log = log

	svc := campaign.New(campaign.Config{
		Store:      store,
		Hub:        hub,
		Workers:    *workers,
		Runners:    *runners,
		QueueDepth: *depth,
		Weights:    w,
		MaxScale:   *maxScale,
	})
	svc.Start()
	return serve(svc, hub, store, *httpAddr)
}

// serve runs the HTTP front end until SIGINT/SIGTERM, then drains. The
// signal handler is installed before the listen address is announced, so
// a signal sent as soon as the address appears is drained, not fatal.
func serve(svc *campaign.Service, hub *telemetry.Hub, store *resultstore.Store, addr string) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	srv, err := telemetry.Serve(addr, svc.Handler())
	if err != nil {
		return err
	}
	hub.Logger().Info("campaignd listening", "addr", srv.Addr)
	fmt.Fprintf(os.Stderr, "campaignd: serving campaigns at http://%s (POST /campaigns; ops at /metrics /spans /healthz)\n", srv.Addr)

	<-sig
	fmt.Fprintln(os.Stderr, "campaignd: draining (in-flight campaigns finish, queued ones drop)")
	svc.Close()
	err = srv.Close()
	fmt.Fprintf(os.Stderr, "campaignd: store: %s\n", store.Stats())
	return err
}
