package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	queryvis "repro"
	"repro/internal/diagcache"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

// workerEnv marks a re-execution of this binary as a pool worker.
const workerEnv = "PERFBENCH_WORKER"

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// daemonConfig is the server configuration queryvisd builds from its
// flag defaults (cmd/queryvisd: -verify=degrade, -cache-entries=4096,
// -cache-bytes=64MiB, -timeout=5s, -max-concurrent=64, -max-body=1MiB,
// -breaker-threshold=5, -breaker-cooldown=30s, -max-batch-items=64,
// -metrics=true, -slow-query-ms=500). Request logs are formatted as the
// daemon formats them and then discarded.
func daemonConfig() server.Config {
	return server.Config{
		Limits:             queryvis.DefaultLimits(),
		RequestTimeout:     5 * time.Second,
		MaxConcurrent:      64,
		MaxBodyBytes:       1 << 20,
		DefaultVerify:      queryvis.VerifyDegrade,
		BreakerThreshold:   5,
		BreakerCooldown:    30 * time.Second,
		CacheEntries:       4096,
		CacheMaxBytes:      64 << 20,
		MaxBatchItems:      64,
		Logger:             discardLogger,
		SlowQueryThreshold: 500 * time.Millisecond,
	}
}

// workerConfig is what a queryvisd -worker child serves with: the same
// pipeline flags, no telemetry surface, a private cache.
func workerConfig() server.Config {
	cfg := daemonConfig()
	cfg.DisableTelemetry = true
	return cfg
}

// runWorker is the worker-mode entry point: the frame protocol on
// stdin/stdout in front of the hardened handler, as queryvisd -worker.
func runWorker() int {
	if err := workerpool.RunWorker(os.Stdin, os.Stdout, server.New(workerConfig()), workerpool.RunOptions{}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// children tracks every worker process this benchmark started, so that
// the emergency exit path can kill them even when a pool is wedged.
var children struct {
	mu   sync.Mutex
	cmds []*exec.Cmd
}

// spawnWorker re-executes this binary as a pool worker. The child is
// SIGKILLed by the kernel if this process dies first (Pdeathsig), and
// stays in this process's group so a group signal reaches it too.
func spawnWorker() (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	children.mu.Lock()
	children.cmds = append(children.cmds, cmd)
	children.mu.Unlock()
	return cmd, nil
}

// killChildren SIGKILLs every worker ever started; already-reaped ones
// report an error that is of no interest here.
func killChildren() {
	children.mu.Lock()
	defer children.mu.Unlock()
	for _, c := range children.cmds {
		if c.Process != nil {
			_ = c.Process.Kill()
		}
	}
}

// hook is the benchmark's outside-in probe around one handler: it counts
// health probes (to observe the router's first one) and, while the
// traced pass is on, records a span per diagram request.
type hook struct {
	name    string
	inst    int
	next    http.Handler
	tr      *tracer
	healthz atomic.Int64
}

func (h *hook) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/healthz" {
		h.healthz.Add(1)
	}
	if h.tr == nil || !h.tr.on.Load() || r.URL.Path != "/v1/diagram" {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.live(h.name, h.inst, t0, time.Now())
}

// instance is one queryvisd server behind a listener.
type instance struct {
	srv   *server.Server
	reg   *telemetry.Registry
	cache *diagcache.Cache // direct workloads: the server's cache
	pool  *workerpool.Pool // fabric-skew: the instance's worker pool
	hook  *hook
	url   string
}

// stack is one workload's serving stack plus its clients.
type stack struct {
	front string // base URL the clients send to
	insts []*instance
	rt    *router.Router
	// local is an in-process worker-configured server with its own cache,
	// used by the traced pass to split Pool.Do into IPC and handler time.
	local      *server.Server
	localCache *diagcache.Cache
	clients    []*http.Client
	servers    []*http.Server
	serving    sync.WaitGroup
	tr         *tracer
}

// serve starts an HTTP server for h on an ephemeral loopback port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	st.servers = append(st.servers, hs)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// buildStack constructs the workload's stack and returns once the first
// timed request can be sent: listeners up, workers ready, the router's
// first health probe answered, and every client's connection open.
func buildStack(ctx context.Context, workload string, nclients int, tr *tracer) (st *stack, err error) {
	st = &stack{tr: tr}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	switch workload {
	case "warm-direct", "cold-direct":
		in := &instance{reg: telemetry.NewRegistry()}
		in.cache = diagcache.New(diagcache.Config{MaxEntries: 4096, MaxBytes: 64 << 20, Metrics: in.reg})
		cfg := daemonConfig()
		cfg.Metrics, cfg.Cache = in.reg, in.cache
		in.srv = server.New(cfg)
		in.hook = &hook{name: "server", next: in.srv, tr: tr}
		if in.url, err = st.serve(in.hook); err != nil {
			return st, err
		}
		st.insts = []*instance{in}
		st.front = in.url
	case "fabric-skew":
		for i := 0; i < 2; i++ {
			in := &instance{reg: telemetry.NewRegistry()}
			in.pool, err = workerpool.New(workerpool.Config{
				Spawn:                spawnWorker,
				Workers:              1,
				MaxRequestsPerWorker: 512,
				MaxWorkerRSS:         512 << 20,
				MaxBatch:             8,
				RequestTimeout:       7 * time.Second, // queryvisd: -timeout + 2s
				Metrics:              in.reg,
				Logger:               slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
			})
			if err != nil {
				return st, err
			}
			st.insts = append(st.insts, in)
			cfg := daemonConfig()
			cfg.Metrics, cfg.Pool = in.reg, in.pool
			in.srv = server.New(cfg)
			in.hook = &hook{name: "server", inst: i, next: in.srv, tr: tr}
			if in.url, err = st.serve(in.hook); err != nil {
				return st, err
			}
		}
		for _, in := range st.insts {
			if err := waitFor(ctx, func() bool { s := in.pool.State(); return s.Idle == s.Workers }); err != nil {
				return st, fmt.Errorf("worker ready: %w", err)
			}
		}
		// queryvisd -route defaults: -route-replicas=64,
		// -route-health-interval=250ms, -route-hot-rps=50,
		// -route-hot-replicas=2, -route-stampede-ttl=2s, -max-body=1MiB.
		st.rt, err = router.New(router.Config{
			Backends:        []string{st.insts[0].url, st.insts[1].url},
			Replicas:        64,
			HealthInterval:  250 * time.Millisecond,
			MaxBodyBytes:    1 << 20,
			HotThresholdRPS: 50,
			HotReplicas:     2,
			StampedeTTL:     2 * time.Second,
			Metrics:         telemetry.NewRegistry(),
			Logger:          discardLogger,
		})
		if err != nil {
			return st, err
		}
		if st.front, err = st.serve(&hook{name: "router", next: st.rt, tr: tr}); err != nil {
			return st, err
		}
		for _, in := range st.insts {
			if err := waitFor(ctx, func() bool { return in.hook.healthz.Load() > 0 }); err != nil {
				return st, fmt.Errorf("first router probe: %w", err)
			}
		}
		st.localCache = diagcache.New(diagcache.Config{MaxEntries: 4096, MaxBytes: 64 << 20})
		lcfg := workerConfig()
		lcfg.Cache = st.localCache
		st.local = server.New(lcfg)
	default:
		return st, fmt.Errorf("unknown workload %q", workload)
	}
	for i := 0; i < nclients; i++ {
		c := &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		}
		st.clients = append(st.clients, c)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.front+"/v1/healthz", nil)
		if err != nil {
			return st, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return st, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return st, fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	return st, nil
}

// waitFor polls cond until it holds or 10s pass.
func waitFor(ctx context.Context, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// workerPids lists the live worker processes of every pool.
func (st *stack) workerPids() []int {
	var pids []int
	for _, in := range st.insts {
		if in.pool != nil {
			pids = append(pids, in.pool.Pids()...)
		}
	}
	return pids
}

// close tears the stack down and waits for everything it started: the
// router's loops, the HTTP servers, and every worker process (reaped).
func (st *stack) close() {
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	for _, hs := range st.servers {
		_ = hs.Close() // the listener is ours; nothing to report
	}
	st.serving.Wait()
	for _, in := range st.insts {
		if in.pool != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = in.pool.Close(ctx) // a timeout kills the workers; Close still reaps them
			cancel()
		}
	}
}
