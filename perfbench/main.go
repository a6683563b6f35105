// Command perfbench is the repository's benchmark: it runs one named
// workload against the real serving stack (server.New, router.New and
// workerpool.New, configured with queryvisd's flag defaults), checks
// every response against the uncached pipeline, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a
// separate traced pass, as the last line of standard output.
//
//	bash perfbench/run.sh --workload warm-direct --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// what they have shown so far.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/diagcache"
)

// Run-level limits: the whole invocation must end well inside the
// 180 s a run is given, on every path.
const (
	runTimeout  = 160 * time.Second
	exitTimeout = 10 * time.Second
)

func main() {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(runWorker())
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchMain parses flags, runs the workload under signal and timeout
// handling, and prints the result. Every exit path closes the stack and
// reaps the workers; on SIGINT, SIGTERM, a timeout or an error it exits
// non-zero without printing a result.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the request order and the traced sample")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run (cold-direct: sizes its fixed request count)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	fs.StringVar(&o.traceDir, "trace-out", ".bench_build/traces", "directory the traced pass writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || o.seconds > 60 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be 1..60 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	var interrupted atomic.Bool
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-sigs:
			interrupted.Store(true)
		case <-ctx.Done():
		case <-stopWatch:
			return
		}
		cancel()
		// The orderly path closes the pools; if it has not finished in
		// time, kill the workers and leave.
		select {
		case <-stopWatch:
		case <-time.After(exitTimeout):
			fmt.Fprintln(stderr, "perfbench: shutdown overran; killing workers")
			killChildren()
			os.Exit(3)
		}
	}()

	res, report, err := runWorkload(ctx, o)
	switch {
	case interrupted.Load():
		fmt.Fprintln(stderr, "perfbench: interrupted")
		return 130
	case err != nil:
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rb, _ := json.Marshal(map[string]any{"report": report}) // plain data always marshals
	fmt.Fprintln(stdout, string(rb))
	b, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(b))
	return 0
}

// setupReps is how many times a run builds its stack; setup_s is the
// median. The last build is the one measured.
func setupReps(workload string) int {
	if workload == "fabric-skew" {
		return 9
	}
	return 15
}

// nclients is the closed loop's client count: one per core this
// process may run on.
func nclients() int { return runtime.NumCPU() }

func runWorkload(ctx context.Context, o options) (res *result, report map[string]any, err error) {
	in, err := makeInputs(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, nil, err
	}
	host := readHostFacts()
	calib0 := calibrate()
	cpuT0 := readCPUTimes()
	tr := newTracer()

	// Set up several times; report the median, keep the last stack.
	var setups []float64
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for r := 0; r < setupReps(o.workload); r++ {
		if st != nil {
			st.close()
			st = nil
		}
		t0 := time.Now()
		if st, err = buildStack(ctx, o.workload, nclients(), tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		for _, qi := range in.warm {
			if rec := send(ctx, st.clients[0], st.front, &in.queries[qi]); rec.kind != kindOK {
				return nil, nil, fmt.Errorf("warm pass: request failed (kind %d)", rec.kind)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	sent := make([]atomic.Bool, len(in.queries))
	for _, qi := range in.warm {
		sent[qi].Store(true)
	}
	// The measured phase starts on a collected heap, so that garbage from
	// input generation and set-up is not collected inside it.
	runtime.GC()
	c0 := st.counters()
	rt0 := readRuntime()
	cpu := startCPU(st.workerPids)
	rss := startRSS(st.workerPids)
	var marks []mark
	recs, elapsed := st.drive(ctx, in, sent, o.seconds, func(at time.Duration) {
		marks = append(marks, mark{at: at, cpu: cpu.used()})
	})
	cpuUsed := cpu.used()
	rssPeak := rss.finish()
	rt1 := readRuntime()
	c1 := st.counters()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	a := auditRecords(ctx, in, recs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ws := windowStats(recs, marks, elapsed, cpuUsed)
	res = &result{
		Correct:   a.unexplained == 0 && a.failed == 0,
		Attempted: a.attempted,
		Failed:    a.failed,
		Metrics:   map[string]metric{},
	}
	report = map[string]any{
		"workload":         o.workload,
		"seed":             o.seed,
		"sequence_hash":    in.sequenceHash(),
		"distinct_queries": len(in.queries),
		"host":             host,
		"clients":          len(st.clients),
		"elapsed_s":        elapsed.Seconds(),
		"latency_samples":  ws.samples,
		"windows":          ws.windows,
		"setup_samples_s":  setups,
		"wrong_diagrams":   a.wrong,
		"wrong_explained":  a.explained,
		"reference_status": a.statuses,
	}

	if !o.trace {
		m := res.Metrics
		// Wrong diagrams are errors, not throughput.
		m["throughput_rps"] = metric{ws.goodPerSec, "1/s"}
		m["latency_p50_ms"] = metric{ws.p50MS, "ms"}
		m["latency_p99_ms"] = metric{ws.p99MS, "ms"}
		m["error_share"] = metric{float64(a.failed+a.wrong) / float64(a.attempted), "share"}
		m["cpu_ms_per_req"] = metric{ws.cpuMSPerReq, "ms"}
		m["rss_peak_mb"] = metric{rssPeak, "MiB"}
		m["setup_s"] = metric{median(setups), "s"}
	} else {
		lg, err := st.tracePass(ctx, in, sent, o.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := lg.writeSpans(o.traceDir, o.workload, o.seed); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		layerMetrics(res.Metrics, lg, a, recs, c0, c1, rt0, rt1, rss)
		report["ledger"] = lg
	}
	calib1 := calibrate()
	steal := stealShare(cpuT0, readCPUTimes())
	report["calib_us"] = []float64{calib0, calib1}
	report["steal_share"] = steal
	if o.trace {
		res.Metrics["host.calib_us"] = metric{calib0, "us"}
		res.Metrics["host.calib_drift_share"] = metric{calib1/calib0 - 1, "share"}
		res.Metrics["host.steal_share"] = metric{steal, "share"}
	}
	return res, report, nil
}

// counters is a snapshot of the public counters the per-layer metrics
// difference over the measured window.
type counters struct {
	outcomes  map[string]float64
	evictions float64
	spawns    int64
	retries   int64
	recycles  int64
	frames    float64
	batches   int64
	items     int64
	respHits  int64
	coalesced int64
	failovers int64
}

func (st *stack) counters() counters {
	var c counters
	for _, in := range st.insts {
		if in.cache != nil {
			c.outcomes = st.outcomeCounts()
			for _, cause := range []string{diagcache.EvictLRU, diagcache.EvictReplace, diagcache.EvictInvalidate} {
				c.evictions += in.reg.Value(diagcache.MetricEvictions, "cause", cause)
			}
		}
		if in.pool != nil {
			ps := in.pool.State()
			c.spawns += ps.Spawns
			c.retries += ps.Retries
			c.recycles += ps.Exits["recycled"]
			c.batches += ps.Batches
			c.items += ps.BatchItems
			c.frames += in.reg.Value("queryvis_worker_request_duration_seconds", "slot", "0")
		}
	}
	if st.rt != nil {
		rs := st.rt.State()
		if rs.Stampede != nil {
			c.respHits, c.coalesced = rs.Stampede.Hits, rs.Stampede.Coalesced
		}
		c.failovers = rs.Failovers
	}
	return c
}

// layerMetrics fills the --trace 1 metrics: counter ratios over the
// measured load, and the traced pass's per-layer times and allocations.
// A layer the workload does not cross reports 0.
func layerMetrics(m map[string]metric, lg *ledger, a audit, recs []record, c0, c1 counters, rt0, rt1 runtimeSample, rss *rssSampler) {
	n := float64(max(len(recs), 1))
	per1k := func(d float64) float64 { return d / n * 1000 }
	share := func(x, of float64) float64 {
		if of == 0 {
			return 0
		}
		return x / of
	}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// diagcache: exact from the server's registry when the cache is in
	// this process; for fabric-skew, from the response headers of
	// requests the workers answered (see README.md).
	var exact, pattern, miss, total float64
	if c1.outcomes != nil {
		for o, v := range c1.outcomes {
			d := v - c0.outcomes[o]
			total += d
			switch diagcache.Outcome(o) {
			case diagcache.OutcomeHit:
				exact += d
			case diagcache.OutcomeHitPattern:
				pattern += d
			case diagcache.OutcomeMiss:
				miss += d
			}
		}
	} else {
		for _, r := range recs {
			if r.kind != kindOK || r.router != 0 {
				continue
			}
			total++
			switch {
			case !r.hit:
				miss++
			case r.first:
				pattern++
			default:
				exact++
			}
		}
	}
	set("diagcache.hit_exact_share", "share", share(exact, total))
	set("diagcache.hit_pattern_share", "share", share(pattern, total))
	set("diagcache.miss_share", "share", share(miss, total))
	set("diagcache.evictions_per_1k", "count", per1k(c1.evictions-c0.evictions))
	set("diagcache.wrong_hit_share", "share", share(float64(a.wrongHit), float64(a.attempted)))
	set("diagcache.lookup_us", "us", lg.perReq("diagcache.lookup"))

	for _, s := range []string{"sqlparse.parse", "sqlparse.resolve", "trc.convert", "logictree.tree",
		"core.build", "core.patternkey", "inverse.verify", "dot.render", "dot.text", "svg.render"} {
		set(s+"_us", "us", lg.perReq(s))
	}
	for _, s := range []string{"sqlparse.parse", "inverse.verify", "dot.render", "svg.render"} {
		set(s+"_allocs", "count", lg.allocsPerCall(s))
	}
	set("inverse.nodes_per_verify", "count", share(float64(lg.Nodes), float64(lg.Verifies)))
	set("inverse.budget_exhausted_share", "share", share(float64(lg.Exhausted), float64(lg.Verifies)))

	set("server.handler_us", "us", share(lg.HandlerUS, float64(lg.Handlers)))
	set("server.overhead_us", "us", lg.perReq("server.overhead"))
	set("http.client_overhead_us", "us", lg.perReq("http.client_overhead"))

	set("workerpool.roundtrip_us", "us", share(lg.DoUS, float64(lg.Dos)))
	set("workerpool.ipc_us", "us", lg.perReq("workerpool.ipc"))
	frames := c1.frames - c0.frames
	items := frames - float64(c1.batches-c0.batches) + float64(c1.items-c0.items)
	set("workerpool.items_per_frame", "count", share(items, frames))
	set("workerpool.spawns_per_1k", "count", per1k(float64(c1.spawns-c0.spawns)))
	set("workerpool.recycles_per_1k", "count", per1k(float64(c1.recycles-c0.recycles)))
	set("workerpool.retries_per_1k", "count", per1k(float64(c1.retries-c0.retries)))
	set("workerpool.worker_rss_mb", "MiB", median(rss.workerMB))

	set("router.hop_us", "us", lg.perReq("router.hop"))
	set("router.respcache_hit_share", "share", per1k(float64(c1.respHits-c0.respHits))/1000)
	set("router.coalesced_share", "share", per1k(float64(c1.coalesced-c0.coalesced))/1000)
	set("router.failovers_per_1k", "count", per1k(float64(c1.failovers-c0.failovers)))

	set("runtime.alloc_kb_per_req", "KiB", (rt1.allocBytes-rt0.allocBytes)/1024/n)
	set("runtime.gc_cpu_share", "share", share(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	set("runtime.gc_per_1k", "count", per1k(rt1.gcCycles-rt0.gcCycles))

	set("trace.e2e_us", "us", share(lg.E2EUS, float64(lg.Requests)))
	set("trace.unattributed_us", "us", share(lg.Unattributed, float64(lg.Requests)))
	set("trace.overhead_share", "share", lg.overheadShare())
}
