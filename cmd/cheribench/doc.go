// Command cheribench is the repository's benchmark. It measures cherisim's
// host cost end to end on four workloads and, in a traced run, splits that
// cost across the simulator's layers: the paper's top-down attribution
// (cache, TLB, branch predictor, core) applied to the simulator itself, in
// the layered style of the CHERI Microanalysis suite.
//
// The benchmark drives only the program's public entry points
// (experiments.NewSession, Session.Run, Prefetch, Executions and
// MetricSnapshot, CampaignGrid, Renderable, UnionPairs, RenderSelected,
// golden.Load and Diff, resultstore.ModelFingerprint, and the real
// cmd/campaignd binary over loopback HTTP). It never imports
// internal/replay or internal/soc or names the replay switches, so the
// replay fast path, the legacy co-run engine, the session's simulation
// paths and the model's lookup structures can change without touching it;
// a test enforces the import rule.
//
// # Running
//
// From the repository root:
//
//	sh cmd/cheribench/bench.sh --workload grid-cold --seed 1 --seconds 15 --trace 0
//	sh cmd/cheribench/bench.sh --workload campaign-mixed --trace 1
//
// cmd/cheribench is a module of its own, with its own go.mod that replaces
// cherisim with the repository, so the benchmark builds from its own
// directory and nothing else in the repository has to change for it. The
// price is that the root's go test ./... skips this package: its tests run
// only with go test in this directory. bench.sh builds it, with the Go build
// cache, temp files, result stores and traces all under .bench_build/, and
// runs it with -root set to the repository. The flags are:
//
//	-workload W   grid-cold, paper-cold, campaign-warm, campaign-mixed, or all (the default)
//	-seed N       generates every input the program receives (default 1)
//	-seconds S    measurement budget (default 15); a cold pass or campaign is never cut short
//	-trace 0|1    1 runs the traced variant and reports per-layer metrics instead
//	-trace-dir D  where a traced run writes its Chrome traces and CPU profiles (default .bench_build/trace)
//	-json FILE    also write the results with their provenance to FILE
//
// Each run prints one line per metric ("workload metric value unit", with
// the sample count where one applies), the error rate (failed over
// attempted operations), a provenance line, and last a JSON object with
// the keys correct, attempted, failed and metrics. The provenance is the
// git commit and whether the tree was dirty (from the build's VCS stamp;
// "unknown" outside a git checkout), the Go version, nproc, GOMAXPROCS, the
// seed and resultstore.ModelFingerprint. Use only results stamped clean as
// a baseline.
//
// The package's own tests run with go test in this directory in a few
// seconds: the statistics helpers, the pprof bucketing on
// testdata/traces.txt, body slicing, seed determinism, the decoupling
// guard, BENCHMARK.json against the reported metrics, and smoke runs of
// grid-cold over two pairs (traced and untraced) and campaign-warm over
// table1.
//
// # Workloads
//
// grid-cold runs the 60 CampaignGrid pairs through Session.Run serially
// (Jobs=1, no store) in a seed-shuffled order. About 95% of its CPU is the
// model layers (core, cache, tlb, branch, mem, alloc, cap), and replay
// never engages because each key is asked for once. Model optimisations
// show here; harness-only changes should leave it unchanged.
//
// paper-cold runs the -all campaign the way the experiments CLI does:
// Jobs=GOMAXPROCS, no store, a seed-shuffled
// Prefetch(UnionPairs(Renderable())), then RenderSelected over every
// renderable experiment. It adds what the grid lacks: the ablation re-runs
// served by replay, the profiler, the legacy and fabric co-run engines, the
// kernels and render. Deleting those paths shows here and not on grid-cold.
//
// Every pass of a cold workload runs in a fresh child process (the bench
// binary re-executed). internal/experiments keeps a process-global replay
// cache, so a second pass in one process would replay instead of simulate.
// Passes repeat until -seconds has elapsed.
//
// campaign-warm starts cmd/campaignd (built before any timing) with its
// default flags, a fresh -store, -http 127.0.0.1:0 and -log-level "". One
// cold full-set submission primes it. Then min(2, nproc) closed-loop
// clients resubmit for -seconds. Each request POSTs a seed-drawn selection
// (a quarter of them the full set, the rest 1 to 5 of its experiments),
// follows /events to done, and GETs /result. Nothing is simulated, so the
// cost is render, the result store's admission cache, the scheduler and
// net/http. Model gains should leave it unchanged; harness and render
// regressions show.
//
// campaign-mixed uses the same daemon on a fresh store. Tenant interactive
// submits table1,fig1,table3 cold. Then tenant batch submits one cold
// ext-multicore,ext-revocation,ext-sweep,hotspots,scale campaign, which
// covers all five simulation paths (Run, profileRun, RunKernel, CoRun and
// the 64-core CoRunTopo). Meanwhile one interactive client resubmits
// seed-drawn subsets of its selection back to back until the batch is done;
// the batch's length is the measurement window. Both tenants share one
// connection: between its campaigns the interactive client reads the
// batch's status, and once the batch is done the bench reads its event
// feed and body. Cold writes run beside warm reads on one store and one
// fleet, so fleet-sharing changes show here, and so does a gain for one
// tenant that costs the other.
//
// In every run the simulated caches start empty and the statistics include
// warm-up, as in the paper's per-run methodology. All load comes from this
// process over at most min(2, nproc) connections: min(2, nproc) on
// campaign-warm, one on campaign-mixed. A traced run's profile scrape uses
// one more.
//
// # End-to-end metrics
//
// All times are host time. Every workload reports every metric; what the
// metric measures depends on the workload. The bound is how much the
// median may worsen before a change counts as a regression.
//
//   - setup_s (s, lower, bound 25%): median of 101 set-ups in the run. On
//     the cold workloads, the time from starting a child to its ready line:
//     process start, package init, NewSession and, for grid-cold, loading
//     the golden baseline. On the campaign workloads, the time from
//     starting campaignd on a fresh store until /healthz answers. Building
//     the bench and campaignd is not part of it. A set-up takes a few
//     milliseconds, so the bound is relative only; there is no absolute
//     floor such as 0.25 s, and a 1 ms regression in process start-up
//     fails it.
//   - cold_s (s, lower, 25%): the workload's cold job. grid-cold: the median
//     grid pass. paper-cold: the median -all pass. campaign-warm: the cold
//     full-set submission, from POST to result. campaign-mixed: the batch
//     campaign, from POST to result.
//   - p50_ms (ms, lower, 25%): median latency of the workload's requests.
//     On grid-cold a request is one pair's Session.Run, over every pass
//     (120 to 180 samples). On paper-cold it is a whole pass, so p50_ms is
//     cold_s in ms. On the campaign workloads it is a warm campaign, from
//     POST to result: both clients' on campaign-warm, the interactive
//     tenant's during the batch on campaign-mixed.
//   - tail_ms (ms, lower, 25%): the tail of the same requests. On
//     grid-cold, the mean of the slowest tenth of the Session.Run calls:
//     the 60 pairs' times have gaps of a third or more there (133, 184,
//     193, 215 ms at seed 1), so a p90 would jump between neighbours from
//     run to run. On paper-cold, the slowest of the (usually two) passes.
//     On campaign-warm, p99 of about 4000 warm campaigns. On
//     campaign-mixed, p90 of about 4500: its p99 spread over ten seeds was
//     23%, too close to the bound.
//   - per_s (1/s, higher, 25%): requests completed per second of the
//     window: Session.Run calls on grid-cold, passes on paper-cold, warm
//     campaigns on the campaign workloads.
//
// On the cold workloads per_s restates cold_s: the pass's work is fixed,
// so requests per second is the inverse of the mean pass (child start-up
// included). On paper-cold p50_ms and tail_ms restate it too, from about
// two passes. A pass-time regression there fires up to four bounds at once;
// they are one signal, not four.
//   - peak_rss_mb (MiB, lower, 20%): the largest child's maxrss on the cold
//     workloads; campaignd's maxrss on the campaign workloads. campaignd
//     keeps every finished campaign, so on campaign-warm it also grows with
//     the number of campaigns served.
//   - overhead_err (ratio, lower, 1%): the mean absolute error of the
//     simulated benchmark/hybrid and purecap/hybrid time ratios against the
//     paper's Table 3, over the 12 workloads with paper times (23 ratios:
//     QuickJS's benchmark-ABI NA is skipped). The ratios are rounded as
//     Figure 1 prints them, so the cold workloads (from the session) and the
//     campaign workloads (from the rendered Figure 1) report the same
//     value. It is the only metric about the modelled design and moves only
//     on a model change. The model was tuned against these same times and
//     nothing is held out, so it is a fit error, not a validated error.
//
// Failures are counted, not a metric: a correctness check that fails, a
// request that errors, or any 429 or 5xx response counts as a failed
// operation, and correct is false unless none failed. The checks are: on
// grid-cold, every pair's Err is nil and golden.Load of
// testdata/golden-scale1.json finds no drift from MetricSnapshot; on
// paper-cold, no experiment fails and every renderable experiment renders
// one section; on both, every pass runs the same µop count and overhead_err
// and renders the same body (the sha256 is printed); on the campaign
// workloads, every warm body byte-equals the matching "== id: ... =="
// sections of the set-up body; on campaign-warm, every warm campaign ran 0
// simulations; on campaign-mixed, a warm resubmission of the batch
// byte-equals its cold body.
//
// grid-cold also prints sim_muops_per_s, the simulated µops per host
// second of the median pass. It is not bounded: the µop count is exact
// (177,987,561 at seed), so it moves exactly with cold_s.
//
// # Traced run
//
// -trace 1 runs one pass of the workload, observed, and reports the
// per-layer metrics. End-to-end metrics always come from untraced runs.
// The bench records spans around its own calls into each layer:
// Session.Run per pair, Prefetch and each experiment (from RenderSelected's
// callback) in the cold children, and each campaign's POST, event stream
// and GET in the clients, with the server's queued, started and done stamps
// as queue_ms and run_ms attributes. Spans are kept in memory and written
// at exit as Chrome trace JSON: WORKLOAD.trace.json from the bench and
// WORKLOAD-child.trace.json from a cold child. CPU profiles come from
// runtime/pprof in the cold children, and for the campaign workloads from
// scraping campaignd's /debug/pprof/profile in two-second pieces for the
// length of the window.
//
// The profiles are decoded with go tool pprof -traces. Each sample is
// charged to its innermost cherisim/internal/<pkg> frame; core is split by
// function name into fetch (fetch*), bounds (checkBounds,
// checkProvenance) and the rest. A sample with no such frame goes to http
// when its stack runs net/http, to other when it runs a main package, and
// to runtime.gc otherwise (the collector, the scheduler and other runtime
// work). A sample whose leaf is Go map code, or a hash called from it, is
// also counted in runtime.map_cpu_pct. The *.cpu_pct buckets sum to 100;
// core.fetch_cpu_pct and core.bounds_cpu_pct are parts of core.cpu_pct.
//
// A layer that a workload does not exercise or that the bench cannot
// observe reads 0. Each layer metric should move these end-to-end metrics:
//
//   - Model layers: core.{cpu_pct,fetch_cpu_pct,bounds_cpu_pct,uops,ns_per_uop},
//     cache.{cpu_pct,accesses,ns_per_access},
//     tlb.{cpu_pct,lookups,walks,ns_per_lookup},
//     branch.{cpu_pct,resolved,ns_per_branch}, mem.{cpu_pct,cap_accesses},
//     alloc.cpu_pct, cap.cpu_pct, workloads.cpu_pct and runtime.map_cpu_pct
//     move every time metric on grid-cold, partly cold_s on paper-cold and
//     campaign-mixed, and should not move campaign-warm. The counts are
//     the summed PMU counters and RunData.Uops of the pass's grid runs,
//     exact (core.uops is 177,987,561 on grid-cold); a ns_per_* value is
//     its bucket's CPU divided by its count. Counts are 0 on the campaign
//     workloads, where the runs happen inside campaignd.
//   - replay.cpu_pct and runtime.heap_peak_mb (the heap's HeapSys, which
//     never shrinks) move cold_s and peak_rss_mb on paper-cold, and read
//     about 0 and a few tens of MiB on grid-cold.
//   - soc.cpu_pct and profile.cpu_pct move cold_s on paper-cold and
//     campaign-mixed.
//   - experiments.{cpu_pct,prefetch_s,render_s,run_ms_p50,run_ms_max,sims}
//     and exp.<id>_s for each renderable experiment move cold_s on
//     paper-cold. On campaign-mixed experiments.sims moves cold_s; on
//     campaign-warm it must read 0. run_ms_* are the grid's Session.Run
//     calls. On the campaign workloads render_s and exp.<id>_s come from the
//     cold job's event stamps, and the first experiment's time includes the
//     campaign's prefetch.
//   - resultstore.{cpu_pct,disk_hits,mem_hit_ratio,writes,write_errors}
//     move p50_ms and per_s on campaign-warm, and cold_s and the failure
//     count on campaign-mixed. The counts sum the campaigns' store deltas.
//   - campaign.{cpu_pct,queue_ms_p50,queue_ms_p99,run_ms_p50,rejected} move
//     tail_ms on both campaign workloads.
//   - http.{cpu_pct,submit_ms_p50,result_ms_p50} move p50_ms on
//     campaign-warm.
//   - other.cpu_pct, runtime.gc_cpu_pct and runtime.cpu_s (the profiled CPU
//     seconds) affect every workload.
//   - trace.overhead_pct is the traced grid pass over an untraced one in
//     the same run, minus one, on grid-cold; 0 elsewhere.
//
// # Reference numbers
//
// Two sets of ten runs (seeds 1–10 and 11–20, -seconds 15) on a 2-CPU
// virtual machine (go1.24, GOMAXPROCS 2), with the program under test as
// it was when the benchmark was added. Each cell is the range of the two
// sets' medians:
//
//	workload        setup_s         cold_s      p50_ms       tail_ms      per_s         peak_rss_mb
//	grid-cold       0.0029–0.0034   5.6–6.0     82–84        296–318      10.2–10.6     31
//	paper-cold      0.0022–0.0026   11.2–15.3   11231–15346  11447–15346  0.065–0.089   549–558
//	campaign-warm   0.0034–0.0044   11.3–14.4   4.8–5.6      22–24        238–287       699–738
//	campaign-mixed  0.0035–0.0036   17.1–19.8   2.5–2.7      5.6–6.2      254–280       231–238
//
// On every run overhead_err is 0.0677918, no operation fails, and a grid
// pass runs 177,987,561 µops (26–32 Muops/s). The rendered -all body's
// sha256 begins 73e6eb1706fb83e1. A traced grid-cold run charges about 96%
// of its CPU to the model layers and 18% to Go map code.
//
// On that machine, memory-bound code slows by up to 2x for minutes at a
// time while a compute-bound loop barely moves, and nothing in the run can
// tell such a slowdown from a regression. In a quiet stretch a time
// metric's interquartile range over ten seeds is 5–12% of its median
// (grid-cold, second set); a stretch with a slowdown in it widens that to
// 15–25%, and one set of grid-cold caught a slowdown over three of its ten
// runs and read 48–72%. Between the two sets above the paper-cold median
// moved 37% for the same reason. That is why the time bounds are 25%, the
// most the benchmark format allows, and why two commits are compared with
// ten or more alternating pairs of runs, not single runs. setup_s's range
// was 10–50% even as the median of 101 set-ups, so at its 25% bound it is
// unresolved: a change to process start-up is not visible in it.
package main
