package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/leak"
	"repro/internal/netchaos"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// TestMain lets this test binary play both roles: the test process, and
// — re-executed with the instance marker — a real queryvisd member
// process the supervisor spawns, SIGKILLs, and respawns.
func TestMain(m *testing.M) {
	if os.Getenv("QUERYVIS_FLEET_TEST_INSTANCE") == "1" {
		runTestInstance()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTestInstance serves the real pipeline on the fixed address from the
// environment until SIGTERM — fixed, because the member's netchaos proxy
// targets it and a respawn must come back on the same port.
func runTestInstance() {
	addr := os.Getenv("QUERYVIS_FLEET_ADDR")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet test instance: listen %s: %v\n", addr, err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: server.New(server.Config{CacheEntries: 64})}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { _ = srv.Serve(ln) }()
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx)
}

// reservePort grabs an ephemeral port and releases it for the member
// process to bind. The tiny reuse race is acceptable in tests.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestFleetPartitionHeal is the chaos battery the tentpole promises:
// three real instance processes behind netchaos proxies under a real
// router and supervisor; one instance is SIGKILLed and one fully
// partitioned mid-load. The supervisor must take both off the ring,
// respawn the dead one, rejoin both once healthy, never violate the
// disruption budget, and report every action through GET /v1/fleet —
// with zero goroutine or child-process leaks afterwards.
func TestFleetPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos battery is not -short")
	}
	// Registered first so they run last, after the load goroutine's
	// cleanup: a failing phase must not read as a leak.
	t.Cleanup(leak.Check(t))
	t.Cleanup(leak.CheckChildren(t))

	const n = 3
	var proxies [n]*netchaos.Proxy
	var members []Member
	for i := range n {
		backend := reservePort(t)
		p, err := netchaos.New(netchaos.Config{Target: backend, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies[i] = p
		members = append(members, Member{URL: p.URL(), Args: []string{backend}})
	}

	reg := telemetry.NewRegistry()
	rt, err := router.New(router.Config{
		Backends:       []string{members[0].URL, members[1].URL, members[2].URL},
		HealthInterval: 50 * time.Millisecond,
		// A blackholed attempt must abort fast enough for failover to
		// answer within the load client's patience.
		InstanceTimeout: 2 * time.Second,
		Metrics:         reg,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	src := &fakeSource{}
	src.mu.Lock()
	src.members = append(src.members, members...)
	src.mu.Unlock()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(Config{
		Ring:         rt,
		Source:       src,
		Interval:     50 * time.Millisecond,
		MinHealthy:   1,
		DrainTimeout: 500 * time.Millisecond,
		RespawnBase:  300 * time.Millisecond,
		StableAfter:  time.Second,
		Metrics:      reg,
		Spawn: func(m Member) (*exec.Cmd, error) {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				"QUERYVIS_FLEET_TEST_INSTANCE=1",
				"QUERYVIS_FLEET_ADDR="+m.Args[0])
			return cmd, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFleetStatus(func() any { return sup.Status() })

	supCtx, supCancel := context.WithCancel(context.Background())
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		sup.Run(supCtx)
	}()
	defer func() {
		supCancel()
		<-supDone
	}()

	// fleetView decodes what GET /v1/fleet serves over HTTP — the test
	// asserts through the same surface an operator would read.
	type fleetView struct {
		Router struct {
			Instances []struct {
				URL      string `json:"url"`
				Health   string `json:"health"`
				OnRing   bool   `json:"on_ring"`
				Draining bool   `json:"draining"`
			} `json:"instances"`
		} `json:"router"`
		Supervisor *struct {
			Reconciles   int64            `json:"reconciles"`
			Actions      []Action         `json:"actions"`
			ActionCounts map[string]int64 `json:"action_counts"`
			BudgetDenied map[string]int64 `json:"budget_denied"`
		} `json:"supervisor"`
	}
	getFleet := func() fleetView {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/fleet")
		if err != nil {
			t.Fatalf("GET /v1/fleet: %v", err)
		}
		defer resp.Body.Close()
		var fv fleetView
		if err := json.NewDecoder(resp.Body).Decode(&fv); err != nil {
			t.Fatalf("decode /v1/fleet: %v", err)
		}
		return fv
	}
	// checkBudget asserts the two invariants the disruption budget
	// guarantees at every observable instant: at most one concurrent
	// drain, and the ring never empty.
	checkBudget := func(fv fleetView) {
		t.Helper()
		draining, members := 0, 0
		for _, in := range fv.Router.Instances {
			if in.OnRing {
				members++
			}
			if in.Draining {
				draining++
			}
		}
		if draining > 1 {
			t.Fatalf("budget violated: %d concurrent drains, max 1", draining)
		}
		if members == 0 {
			t.Fatalf("budget violated: supervisor emptied the ring")
		}
	}
	onRing := func(fv fleetView, url string) (present, up bool) {
		for _, in := range fv.Router.Instances {
			if in.URL == url && in.OnRing {
				return true, in.Health == router.HealthUp && !in.Draining
			}
		}
		return false, false
	}
	waitFor := func(what string, timeout time.Duration, pred func(fleetView) bool) time.Duration {
		t.Helper()
		start := time.Now()
		deadline := start.Add(timeout)
		for {
			fv := getFleet()
			checkBudget(fv)
			if pred(fv) {
				return time.Since(start)
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v\n%+v", what, fv, fv.Supervisor)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Phase 1: the supervisor spawns all three and the prober observes
	// each one up on the ring. Both facts are read from /v1/fleet: a
	// member reports up only after passing probes, never by assumption.
	waitFor("all members spawned, on the ring, up", 20*time.Second, func(fv fleetView) bool {
		if fv.Supervisor == nil || fv.Supervisor.ActionCounts["spawn"] != n {
			return false
		}
		for _, m := range members {
			if _, up := onRing(fv, m.URL); !up {
				return false
			}
		}
		return true
	})

	// Background load: every response through the router must stay
	// well-formed for the entire chaos window.
	loadStop := make(chan struct{})
	var stopLoad sync.Once
	var loadWG sync.WaitGroup
	// A failing phase must stop the load too, or it outlives the test.
	t.Cleanup(func() { stopLoad.Do(func() { close(loadStop) }); loadWG.Wait() })
	var loadMu sync.Mutex
	var loadErrs []string
	var loadN, loadOK int
	body := fmt.Sprintf(`{"sql":%q,"schema":"beers"}`, corpus.Fig1UniqueSet)
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		hc := &http.Client{Timeout: 15 * time.Second}
		for {
			select {
			case <-loadStop:
				return
			default:
			}
			resp, err := hc.Post(front.URL+"/v1/diagram", "application/json", strings.NewReader(body))
			loadMu.Lock()
			loadN++
			if err != nil {
				loadErrs = append(loadErrs, err.Error())
			} else {
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					loadOK++
				case http.StatusTooManyRequests, http.StatusBadGateway,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					// Honest backpressure during chaos is fine...
				default:
					loadErrs = append(loadErrs, fmt.Sprintf("status %d: %.120s", resp.StatusCode, raw))
				}
				if !json.Valid(raw) {
					loadErrs = append(loadErrs, fmt.Sprintf("malformed body: %.120q", raw))
				}
			}
			loadMu.Unlock()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Phase 2: SIGKILL one member's process and fully partition another.
	sup.mu.Lock()
	killed := sup.procs[members[0].URL]
	sup.mu.Unlock()
	if killed == nil || !killed.running() {
		t.Fatal("no live managed process for member 0")
	}
	if err := syscall.Kill(killed.cmd.pid, syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL member 0: %v", err)
	}
	proxies[1].Partition()
	chaosStart := time.Now()

	// acted reports whether the supervisor's action log holds action
	// for url.
	acted := func(fv fleetView, action, url string) bool {
		for _, a := range fv.Supervisor.Actions {
			if a.Action == action && a.URL == url {
				return true
			}
		}
		return false
	}

	// Both must leave the ring: the dead one because its process is gone,
	// the partitioned one because every probe blackholes. The dead one
	// may be respawned and back before a poll sees the ring without it,
	// so its round trip is read from the action log: a drain, then a
	// rejoin, which the supervisor issues only for an off-ring member.
	//
	// Phase 3a: the killed member respawns (after backoff) and rejoins.
	waitFor("killed member drained, respawned and rejoined", 20*time.Second,
		func(fv fleetView) bool {
			_, up := onRing(fv, members[0].URL)
			return up && acted(fv, "drain", members[0].URL) && acted(fv, "rejoin", members[0].URL)
		})
	killHeal := time.Since(chaosStart)
	// The partitioned one cannot come back before Heal, so the ring
	// itself must show it gone.
	waitFor("partitioned member off ring", 15*time.Second, func(fv fleetView) bool {
		present, _ := onRing(fv, members[1].URL)
		return !present
	})

	// Phase 3b: heal the partition; the member rejoins with hysteresis.
	proxies[1].Heal()
	partHeal := waitFor("partitioned member rejoined after heal", 20*time.Second,
		func(fv fleetView) bool {
			_, healthy := onRing(fv, members[1].URL)
			return healthy
		})
	t.Logf("heal times: killed-member %.2fs (incl. respawn backoff), partitioned-member %.2fs after Heal()",
		killHeal.Seconds(), partHeal.Seconds())

	stopLoad.Do(func() { close(loadStop) })
	loadWG.Wait()
	loadMu.Lock()
	if len(loadErrs) > 0 {
		t.Fatalf("%d/%d load responses malformed during chaos; first: %s", len(loadErrs), loadN, loadErrs[0])
	}
	if loadOK == 0 {
		t.Fatalf("no load request succeeded during chaos (%d sent)", loadN)
	}
	loadMu.Unlock()

	// /v1/fleet must reflect every reconcile action class this scenario
	// exercised, and the untouched member must never have been acted on.
	final := getFleet()
	if final.Supervisor == nil {
		t.Fatal("no supervisor block in /v1/fleet")
	}
	ac := final.Supervisor.ActionCounts
	if ac["spawn"] != n {
		t.Errorf("spawn count = %d, want %d", ac["spawn"], n)
	}
	if ac["respawn"] < 1 {
		t.Errorf("respawn count = %d, want >= 1", ac["respawn"])
	}
	if ac["drain"] < 2 {
		t.Errorf("drain count = %d, want >= 2 (killed + partitioned)", ac["drain"])
	}
	if ac["rejoin"] < 2 {
		t.Errorf("rejoin count = %d, want >= 2 (killed + partitioned)", ac["rejoin"])
	}
	if final.Supervisor.BudgetDenied["last_member"] > 0 || final.Supervisor.BudgetDenied["min_healthy"] > 0 {
		t.Errorf("unexpected budget denials with 3 members and MinHealthy=1: %v", final.Supervisor.BudgetDenied)
	}
	if present, healthy := onRing(final, members[2].URL); !present || !healthy {
		t.Errorf("untouched member should have stayed on the ring healthy throughout")
	}
}
