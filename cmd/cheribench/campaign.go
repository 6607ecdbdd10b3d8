package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cherisim/internal/experiments"
	"cherisim/internal/telemetry"
)

// The campaign-mixed traffic: an interactive tenant's small selection and a
// batch tenant's campaign covering all five simulation paths (Run,
// profileRun, RunKernel, CoRun and the 64-core CoRunTopo).
var (
	interactiveSelection = []string{"table1", "fig1", "table3"}
	batchSelection       = []string{"ext-multicore", "ext-revocation", "ext-sweep", "hotspots", "scale"}
)

// runCampaignWarm: one cold full-set submission, then closed-loop warm
// resubmissions of seed-drawn selections from min(2, nproc) clients.
func runCampaignWarm(b *bench) error {
	d, err := b.daemon()
	if err != nil {
		return err
	}
	defer d.kill()
	c := newClient(d.base, min(2, runtime.NumCPU()), b.spans)
	prime, secs, err := b.prime(c, "warm", b.selection)
	if err != nil {
		return err
	}
	ids := sectionIDs(secs)
	next := func(i int) func() []string { return warmSelections(b.seed, i, b.selection, ids) }
	var prof *profiler
	stop := make(chan struct{})
	if b.traced {
		prof = d.profile(stop, filepath.Join(b.traceDir, b.workload))
	}
	start := time.Now()
	ops := loop(c, "warm", c.conns, func() bool { return time.Since(start) >= b.seconds }, next)
	window := time.Since(start).Seconds()
	close(stop)
	statuses, err := c.statuses()
	if err != nil {
		return err
	}
	b.verify(ops, secs, statuses, true)
	return b.finishCampaign(d, c, traffic{cold: prime, ops: ops, window: window, tailP: 99}, statuses, prof)
}

// runCampaignMixed: a batch tenant's cold campaign beside an interactive
// tenant's closed-loop warm resubmissions, on one daemon and one store.
// Everything goes over one connection: between its campaigns the
// interactive client asks whether the batch is done, and the batch's event
// feed and body are fetched once it is.
func runCampaignMixed(b *bench) error {
	d, err := b.daemon()
	if err != nil {
		return err
	}
	defer d.kill()
	c := newClient(d.base, 1, b.spans)
	sel := interactiveSelection
	if b.selection != nil {
		sel = b.selection
	}
	_, secs, err := b.prime(c, "interactive", sel)
	if err != nil {
		return err
	}
	ids := sectionIDs(secs)
	next := func(int) func() []string { return mixedSelections(b.seed, ids) }
	stop := make(chan struct{})
	var prof *profiler
	if b.traced {
		prof = d.profile(stop, filepath.Join(b.traceDir, b.workload))
	}
	batch, sp, err := c.submit("batch", batchSelection, nil)
	if err != nil {
		sp.End()
		return fmt.Errorf("batch campaign: %w", err)
	}
	var pollErr error
	batchDone := func() bool {
		var st struct {
			State string `json:"state"`
		}
		pollErr = c.do(http.MethodGet, "/campaigns/"+batch.id, nil, http.StatusOK, func(r io.Reader) error {
			return json.NewDecoder(r).Decode(&st)
		})
		return pollErr != nil || st.State == "done"
	}
	ops := loop(c, "interactive", 1, batchDone, next)
	close(stop)
	if pollErr == nil {
		pollErr = c.collect(&batch, sp)
	}
	sp.End()
	if pollErr != nil {
		return fmt.Errorf("batch campaign: %w", pollErr)
	}
	again, err := c.run("batch", batchSelection, nil)
	b.check(err == nil && bytes.Equal(again.body, batch.body),
		"warm resubmission of the batch is not byte-identical to its cold body (err %v)", err)
	statuses, err := c.statuses()
	if err != nil {
		return err
	}
	b.verify(ops, secs, statuses, false)
	b.check(true, "batch campaign")
	t := traffic{cold: batch, coldInWindow: true, ops: ops, window: batch.totalMs / 1000, tailP: 90}
	return b.finishCampaign(d, c, t, statuses, prof)
}

// prime submits a workload's cold set-up campaign, checks it, and returns
// its body's sections. Its time is cold_s unless a batch job takes that role.
func (b *bench) prime(c *client, tenant string, sel []string) (op, []section, error) {
	o, err := c.run(tenant, sel, nil)
	if err != nil {
		return o, nil, fmt.Errorf("cold set-up campaign: %w", err)
	}
	secs := splitSections(o.body)
	if sel == nil {
		b.check(len(secs) == len(experiments.Renderable()), "cold full set rendered %d sections, want %d", len(secs), len(experiments.Renderable()))
	} else {
		b.check(len(secs) == len(sel), "cold set-up campaign rendered %d sections, want %d", len(secs), len(sel))
	}
	b.set("overhead_err", 0, "")
	for _, s := range secs {
		if s.id == "fig1" {
			v := fig1OverheadError(s.text)
			b.check(v >= 0, "fig1 section lacks a row for a workload with paper times")
			b.set("overhead_err", v, "")
		}
	}
	return o, secs, nil
}

// verify checks every warm campaign: it completed, its body byte-equals the
// matching sections of the set-up body, and — when zeroSims — it ran no
// simulation.
func (b *bench) verify(ops []opResult, secs []section, statuses map[string]campaignStatus, zeroSims bool) {
	for _, r := range ops {
		if r.err != nil {
			b.fail(r.err)
			continue
		}
		want, ok := expectedBody(secs, r.sel)
		st, listed := statuses[r.op.id]
		switch {
		case !ok || !bytes.Equal(r.op.body, want):
			b.check(false, "campaign %s %v: body differs from the set-up body's sections", r.op.id, r.sel)
		case !listed:
			b.check(false, "campaign %s missing from GET /campaigns", r.op.id)
		case zeroSims && st.Sims != 0:
			b.check(false, "warm campaign %s %v ran %d simulations", r.op.id, r.sel, st.Sims)
		default:
			b.check(true, "")
		}
	}
}

// traffic is what a campaign workload measured.
type traffic struct {
	cold         op         // the cold job cold_s reports
	coldInWindow bool       // the cold job ran beside the warm campaigns
	ops          []opResult // the warm campaigns
	window       float64    // the seconds per_s divides by
	tailP        float64    // the percentile tail_ms reports
}

// finishCampaign stops the daemon and sets the run's metrics.
func (b *bench) finishCampaign(d *daemon, c *client, t traffic, statuses map[string]campaignStatus, prof *profiler) error {
	var lat, submit, result, queue, runs []float64
	var sims, diskHits, memHits, misses, writes, writeErrs uint64
	for _, r := range t.ops {
		if r.err != nil {
			continue
		}
		lat = append(lat, r.op.totalMs)
		submit = append(submit, r.op.submitMs)
		result = append(result, r.op.resultMs)
		q, rr := r.op.serverMs()
		queue, runs = append(queue, q), append(runs, rr)
		st := statuses[r.op.id]
		sims += st.Sims
		diskHits, memHits, misses = diskHits+st.Store.Hits, memHits+st.Store.MemHits, misses+st.Store.Misses
		writes, writeErrs = writes+st.Store.Writes, writeErrs+st.Store.WriteErrors
	}
	cold := t.cold
	if t.coldInWindow {
		st := statuses[cold.id]
		sims += st.Sims
		writes, writeErrs = writes+st.Store.Writes, writeErrs+st.Store.WriteErrors
	}
	var heapMB float64
	var profiles []string
	if b.traced {
		var err error
		if heapMB, err = d.heapSysMB(); err != nil {
			return err
		}
		if profiles, err = prof.wait(); err != nil {
			return err
		}
	}
	rss, err := d.stop()
	b.check(err == nil, "campaignd shutdown: %v", err)

	if !b.traced {
		b.set("cold_s", cold.totalMs/1000, "")
		b.setPercentile("p50_ms", lat, 50)
		b.setPercentile("tail_ms", lat, t.tailP)
		if n := beyond(len(lat), t.tailP); n < 10 {
			b.notes["tail_ms"] += fmt.Sprintf(", only %d beyond", n)
		}
		b.set("per_s", float64(len(lat))/t.window, fmt.Sprintf("%d campaigns in %.1f s", len(lat), t.window))
		b.set("peak_rss_mb", rss, "campaignd maxrss")
		return nil
	}
	split, err := splitProfiles(profiles)
	if err != nil {
		return err
	}
	m := b.metrics
	setCPU(m, split)
	m["runtime.heap_peak_mb"] = heapMB
	m["experiments.sims"] = float64(sims)
	_, run := cold.serverMs()
	m["experiments.render_s"] = run / 1000
	last := cold.at("started")
	for _, ev := range cold.events {
		if ev.Kind == "experiment" {
			if _, ok := m["exp."+ev.Experiment+"_s"]; ok {
				m["exp."+ev.Experiment+"_s"] = ev.At.Sub(last).Seconds()
			}
			last = ev.At
		}
	}
	m["resultstore.disk_hits"] = float64(diskHits)
	if lookups := diskHits + memHits + misses; lookups > 0 {
		m["resultstore.mem_hit_ratio"] = float64(memHits) / float64(lookups)
	}
	m["resultstore.writes"] = float64(writes)
	m["resultstore.write_errors"] = float64(writeErrs)
	m["campaign.queue_ms_p50"] = median(queue)
	m["campaign.queue_ms_p99"] = percentile(queue, 99)
	m["campaign.run_ms_p50"] = median(runs)
	m["campaign.rejected"] = float64(c.rejected.Load())
	m["http.submit_ms_p50"] = median(submit)
	m["http.result_ms_p50"] = median(result)
	return nil
}

// warmSelections is campaign-warm client i's stream of selections: a
// quarter of the requests ask for the whole set-up selection (nil: the full
// set), the rest for 1–5 of its experiments.
func warmSelections(seed uint64, client int, whole, ids []string) func() []string {
	r := newRand(seed, streamWarm+uint64(client))
	return func() []string {
		if r.IntN(4) == 0 {
			return whole
		}
		return pick(r, ids, 1+r.IntN(min(5, len(ids))))
	}
}

// mixedSelections is the interactive tenant's stream of selections: a
// non-empty subset of its set-up selection.
func mixedSelections(seed uint64, ids []string) func() []string {
	r := newRand(seed, streamMixed)
	return func() []string { return pick(r, ids, 1+r.IntN(len(ids))) }
}

// pick draws k distinct entries of ids, in ids' order.
func pick(r *rand.Rand, ids []string, k int) []string {
	chosen := map[int]bool{}
	for _, i := range r.Perm(len(ids))[:k] {
		chosen[i] = true
	}
	var out []string
	for i, id := range ids {
		if chosen[i] {
			out = append(out, id)
		}
	}
	return out
}

// section is one experiment's framed output in a rendered campaign body.
type section struct {
	id   string
	text []byte
}

// splitSections cuts a rendered body at the "== id: title (section) =="
// header lines RenderSelected frames every experiment with.
func splitSections(body []byte) []section {
	headers := map[string]string{}
	for _, e := range experiments.All() {
		headers[fmt.Sprintf("== %s: %s (%s) ==", e.ID, e.Title, e.Section)] = e.ID
	}
	var out []section
	var start int
	for off := 0; off < len(body); {
		end := bytes.IndexByte(body[off:], '\n')
		if end < 0 {
			end = len(body) - off
		}
		if id, ok := headers[string(body[off:off+end])]; ok {
			if len(out) > 0 {
				out[len(out)-1].text = body[start:off]
			}
			out = append(out, section{id: id})
			start = off
		}
		off += end + 1
	}
	if len(out) > 0 {
		out[len(out)-1].text = body[start:]
	}
	return out
}

func sectionIDs(secs []section) []string {
	ids := make([]string, len(secs))
	for i, s := range secs {
		ids[i] = s.id
	}
	return ids
}

// expectedBody is what a warm campaign over sel must return: the set-up
// body's sections for sel, in set-up order (nil sel: the whole body).
func expectedBody(secs []section, sel []string) ([]byte, bool) {
	want := map[string]bool{}
	for _, id := range sel {
		want[id] = true
	}
	var out []byte
	found := 0
	for _, s := range secs {
		if sel == nil || want[s.id] {
			out = append(out, s.text...)
			found++
		}
	}
	return out, sel == nil || found == len(want)
}

// client drives the campaign API over a bounded set of connections.
type client struct {
	base     string
	conns    int
	hc       *http.Client
	spans    *telemetry.Collector
	rejected atomic.Int64
}

func newClient(base string, conns int, spans *telemetry.Collector) *client {
	return &client{
		base:  base,
		conns: conns,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		spans: spans,
	}
}

// event is one progress record of a campaign's SSE feed.
type event struct {
	Kind       string    `json:"kind"`
	At         time.Time `json:"at"`
	Experiment string    `json:"experiment"`
	Err        string    `json:"err"`
}

// op is one campaign as its submitter saw it.
type op struct {
	id                          string
	start                       time.Time // when the submission was sent
	submitMs, resultMs, totalMs float64
	events                      []event
	body                        []byte
}

// at is the server's stamp on the campaign's first event of a kind.
func (o op) at(kind string) time.Time {
	for _, ev := range o.events {
		if ev.Kind == kind {
			return ev.At
		}
	}
	return time.Time{}
}

// serverMs is the campaign's queue wait and run time by the server's clock.
func (o op) serverMs() (queue, run float64) {
	started := o.at("started")
	return ms(started.Sub(o.at("queued"))), ms(o.at("done").Sub(started))
}

// run submits one campaign, follows its event feed to done, and fetches
// its body. Any status other than the expected one — a 429 or 5xx above
// all — is an error.
func (c *client) run(tenant string, sel []string, track *telemetry.Span) (op, error) {
	o, sp, err := c.submit(tenant, sel, track)
	if err == nil {
		err = c.collect(&o, sp)
	}
	sp.End()
	return o, err
}

// submit POSTs one campaign and returns it with the span that collect
// continues; the caller ends the span.
func (c *client) submit(tenant string, sel []string, track *telemetry.Span) (op, *telemetry.Span, error) {
	o := op{start: time.Now()}
	sp := c.spans.Start("campaign "+tenant, track)
	spec, err := json.Marshal(map[string]any{"tenant": tenant, "experiments": sel})
	if err != nil {
		return o, sp, err
	}
	child := sp.Child("POST /campaigns")
	var st struct {
		ID string `json:"id"`
	}
	err = c.do(http.MethodPost, "/campaigns", spec, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	child.End()
	if err != nil {
		return o, sp, err
	}
	o.id, o.submitMs = st.ID, ms(time.Since(o.start))
	sp.Attr("campaign", o.id)
	return o, sp, nil
}

// collect follows a submitted campaign's event feed to done and fetches
// its body.
func (c *client) collect(o *op, sp *telemetry.Span) error {
	child := sp.Child("GET events")
	err := c.do(http.MethodGet, "/campaigns/"+o.id+"/events", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return err
				}
				o.events = append(o.events, ev)
			}
		}
		return sc.Err()
	})
	child.End()
	if err != nil {
		return err
	}
	if n := len(o.events); n == 0 || o.events[n-1].Kind != "done" {
		return fmt.Errorf("campaign %s: event feed ended before done", o.id)
	} else if e := o.events[n-1].Err; e != "" {
		return fmt.Errorf("campaign %s: %s", o.id, e)
	}
	q, r := o.serverMs()
	sp.Attr("queue_ms", q).Attr("run_ms", r)

	child = sp.Child("GET result")
	t := time.Now()
	err = c.do(http.MethodGet, "/campaigns/"+o.id+"/result", nil, http.StatusOK, func(r io.Reader) error {
		body, err := io.ReadAll(r)
		o.body = body
		return err
	})
	child.End()
	o.resultMs, o.totalMs = ms(time.Since(t)), ms(time.Since(o.start))
	return err
}

// do performs one request and hands the body of a want-status response to
// read; any other status is an error naming it.
func (c *client) do(method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		if resp.StatusCode == http.StatusTooManyRequests {
			c.rejected.Add(1)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// campaignStatus is the part of GET /campaigns the bench reads.
type campaignStatus struct {
	ID    string `json:"id"`
	Sims  uint64 `json:"sims"`
	Store struct {
		Hits, Misses, Writes, MemHits, WriteErrors uint64
	} `json:"store"`
}

func (c *client) statuses() (map[string]campaignStatus, error) {
	var list []campaignStatus
	err := c.do(http.MethodGet, "/campaigns", nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&list)
	})
	out := map[string]campaignStatus{}
	for _, s := range list {
		out[s.ID] = s
	}
	return out, err
}

// opResult is one closed-loop campaign and the selection it asked for.
type opResult struct {
	sel []string
	op  op
	err error
}

// loop runs n closed-loop clients until over reports true: each submits its
// next selection as soon as the previous campaign's body arrived.
func loop(c *client, tenant string, n int, over func() bool, next func(client int) func() []string) []opResult {
	results := make([][]opResult, n)
	done := make(chan int)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			name := fmt.Sprintf("%s client %d", tenant, i)
			track := c.spans.Start(name, nil).SetTrack(c.spans.Track(name))
			defer track.End()
			draw := next(i)
			for !over() {
				sel := draw()
				o, err := c.run(tenant, sel, track)
				results[i] = append(results[i], opResult{sel: sel, op: o, err: err})
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	var all []opResult
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// daemon is a running cmd/campaignd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once the daemon's stderr reaches EOF
	stopped bool
}

// daemon builds cmd/campaignd (outside any timing) and starts it on a
// fresh store; an untraced run starts it setupRepeats times and reports
// the median start-to-healthy time as setup_s.
func (b *bench) daemon() (*daemon, error) {
	bin := filepath.Join(b.work, "campaignd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/campaignd")
	build.Dir, build.Stderr = b.root, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/campaignd: %w", err)
	}
	repeats := setupRepeats
	if b.traced {
		repeats = 1
	}
	var setups []float64
	for i := 0; ; i++ {
		start := time.Now()
		d, err := startDaemon(bin, filepath.Join(b.work, "store-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == repeats-1 {
			if !b.traced {
				b.set("setup_s", median(setups), fmt.Sprintf("median of n=%d", len(setups)))
			}
			return d, nil
		}
		if _, err := d.stop(); err != nil {
			return nil, fmt.Errorf("campaignd shutdown: %w", err)
		}
	}
}

// startDaemon starts campaignd with its default flags on a fresh store and
// a loopback port, and returns once /healthz answers.
func startDaemon(bin, store string) (*daemon, error) {
	cmd := exec.Command(bin, "-http", "127.0.0.1:0", "-store", store, "-log-level", "")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving campaigns at http://"); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			} else if !strings.Contains(line, "draining") && !strings.Contains(line, "store:") {
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.kill()
		return nil, errors.New("campaignd exited before serving")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("campaignd did not report its address within 30s")
	}
	resp, err := http.Get(d.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("campaignd /healthz: %w", err)
	}
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it after a minute) and
// returns its peak RSS in MiB.
func (d *daemon) stop() (float64, error) {
	if d.stopped {
		return 0, nil
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(time.Minute):
		d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	// campaignd announces its address before it installs its signal
	// handler, so a SIGTERM sent right after start-up ends it by the signal
	// rather than by a drain. Both are a clean stop.
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	return float64(d.cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024, err
}

// kill stops a daemon an error path abandons; a no-op once stopped.
func (d *daemon) kill() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
}

// heapSysMB reads the daemon's heap reservation (HeapSys, which never
// shrinks, so it bounds the peak heap) from /debug/pprof/heap.
func (d *daemon) heapSysMB() (float64, error) {
	c := newClient(d.base, 1, nil)
	var mb float64
	err := c.do(http.MethodGet, "/debug/pprof/heap?debug=1", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<16), 1<<22)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "# HeapSys = "); ok {
				n, err := strconv.ParseFloat(v, 64)
				mb = n / (1 << 20)
				return err
			}
		}
		return errors.New("no HeapSys line")
	})
	return mb, err
}

// profiler scrapes consecutive CPU profiles of the daemon until stopped.
type profiler struct {
	done  chan struct{}
	files []string
	err   error
}

func (d *daemon) profile(stop <-chan struct{}, prefix string) *profiler {
	p := &profiler{done: make(chan struct{})}
	c := newClient(d.base, 1, nil) // outside the load's connection budget
	go func() {
		defer close(p.done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("%s-%03d.pprof", prefix, i)
			p.err = c.do(http.MethodGet, "/debug/pprof/profile?seconds=2", nil, http.StatusOK, func(r io.Reader) error {
				data, err := io.ReadAll(r)
				if err == nil {
					err = os.WriteFile(name, data, 0o644)
				}
				return err
			})
			if p.err != nil {
				return
			}
			p.files = append(p.files, name)
		}
	}()
	return p
}

func (p *profiler) wait() ([]string, error) {
	<-p.done
	return p.files, p.err
}
