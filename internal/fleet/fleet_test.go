package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leak"
	"repro/internal/router"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeRing is an in-memory Ring with scripted verdicts, so the
// reconcile loop can be stepped deterministically without a router or
// a prober.
type fakeRing struct {
	mu       sync.Mutex
	epoch    uint64
	order    []string
	members  map[string]*router.InstanceState
	watched  []string
	verdicts map[string]string // URL → router.Health*; absent reads unknown
	ops      []string          // "join URL", "drain URL", "eject URL"
}

func newFakeRing() *fakeRing {
	return &fakeRing{
		members:  make(map[string]*router.InstanceState),
		verdicts: make(map[string]string),
	}
}

// add seeds a member directly, bypassing the op log — "the ring already
// looked like this when the supervisor arrived".
func (f *fakeRing) add(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members[url] = &router.InstanceState{URL: url, OnRing: true}
	f.order = append(f.order, url)
}

// setHealth scripts the verdict State reports for url.
func (f *fakeRing) setHealth(url, health string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.verdicts[url] = health
}

func (f *fakeRing) health(url string) string {
	if h := f.verdicts[url]; h != "" {
		return h
	}
	return router.HealthUnknown
}

func (f *fakeRing) has(url string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[url] != nil
}

func (f *fakeRing) draining(url string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	in := f.members[url]
	return in != nil && in.Draining
}

func (f *fakeRing) opCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ops)
}

func (f *fakeRing) Watch(urls []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.watched = append(f.watched[:0], urls...)
}

func (f *fakeRing) State() router.State {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := router.State{Status: "ok", Epoch: f.epoch}
	for _, url := range f.order {
		in := *f.members[url]
		in.Health = f.health(url)
		st.Instances = append(st.Instances, in)
	}
	for _, url := range f.watched {
		if f.members[url] == nil {
			st.Instances = append(st.Instances, router.InstanceState{URL: url, Health: f.health(url)})
		}
	}
	return st
}

func (f *fakeRing) Join(url string) (uint64, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, "join "+url)
	if in := f.members[url]; in != nil {
		in.Draining = false
		f.epoch++
		return f.epoch, "rejoined", nil
	}
	f.members[url] = &router.InstanceState{URL: url, OnRing: true}
	f.order = append(f.order, url)
	f.epoch++
	return f.epoch, "joined", nil
}

func (f *fakeRing) Drain(url string) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, "drain "+url)
	in := f.members[url]
	if in == nil {
		return f.epoch, errors.New("no such member")
	}
	in.Draining = true
	return f.epoch, nil
}

func (f *fakeRing) Eject(url string) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, "eject "+url)
	if f.members[url] == nil {
		return f.epoch, errors.New("no such member")
	}
	delete(f.members, url)
	for i, u := range f.order {
		if u == url {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.epoch++
	return f.epoch, nil
}

// fakeSource is a scriptable desired-state Source.
type fakeSource struct {
	mu      sync.Mutex
	members []Member
	err     error
}

func (f *fakeSource) set(urls ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members = f.members[:0]
	for _, u := range urls {
		f.members = append(f.members, Member{URL: u})
	}
	f.err = nil
}

func (f *fakeSource) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
}

func (f *fakeSource) Desired(context.Context) ([]Member, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	return append([]Member(nil), f.members...), nil
}

// Member URLs for the scripted-verdict tests; nothing listens on them.
const (
	m1 = "http://m1.test:1"
	m2 = "http://m2.test:1"
	m3 = "http://m3.test:1"
)

// newTestSup builds a supervisor with fast, deterministic settings.
func newTestSup(t *testing.T, fr Ring, src Source, mut func(*Config)) *Supervisor {
	t.Helper()
	cfg := Config{
		Ring:                fr,
		Source:              src,
		MinHealthy:          1,
		MaxConcurrentDrains: 1,
		DrainTimeout:        time.Nanosecond,
		Metrics:             telemetry.NewRegistry(),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tick(s *Supervisor, n int) {
	for range n {
		s.ReconcileOnce(context.Background())
	}
}

func TestJoinRequiresUpStreak(t *testing.T) {
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(m1, m2)
	s := newTestSup(t, fr, src, nil)

	tick(s, 2)
	if fr.has(m1) || fr.has(m2) {
		t.Fatal("joined a member whose verdict is still unknown")
	}
	fr.setHealth(m1, router.HealthUp)
	fr.setHealth(m2, router.HealthDown)
	tick(s, 1)
	if !fr.has(m1) || fr.has(m2) {
		t.Fatal("exactly the member judged up should have joined")
	}
	fr.setHealth(m2, router.HealthUp)
	tick(s, 1)
	if !fr.has(m2) {
		t.Fatal("a member should join on the tick its verdict turns up")
	}
	if got := s.reg.Value(mActions, "action", "join"); got != 2 {
		t.Fatalf("join actions = %v, want 2", got)
	}
	st := s.Status()
	if st.ActionCounts["join"] != 2 || len(st.Desired) != 2 {
		t.Fatalf("status = %+v, want 2 joins and 2 desired", st)
	}
}

func TestDrainEjectRejoinHeal(t *testing.T) {
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(m1, m2)
	fr.setHealth(m1, router.HealthUp)
	fr.setHealth(m2, router.HealthUp)
	s := newTestSup(t, fr, src, nil)

	tick(s, 1)
	if !fr.has(m1) || !fr.has(m2) {
		t.Fatal("setup: both members should be on the ring")
	}

	fr.setHealth(m2, router.HealthDown)
	tick(s, 1)
	if !fr.draining(m2) {
		t.Fatal("a member judged down should be draining")
	}
	tick(s, 1) // drain outlives DrainTimeout → eject
	if fr.has(m2) {
		t.Fatal("stuck drain should have escalated to eject")
	}
	if !fr.has(m1) {
		t.Fatal("healthy member must be untouched throughout")
	}

	fr.setHealth(m2, router.HealthUp)
	tick(s, 1) // recovery → rejoin, heal duration observed
	if !fr.has(m2) {
		t.Fatal("recovered member should have rejoined")
	}
	st := s.Status()
	want := map[string]int64{"join": 2, "drain": 1, "eject": 1, "rejoin": 1}
	for action, n := range want {
		if st.ActionCounts[action] != n {
			t.Fatalf("action %q count = %d, want %d (all: %v)", action, st.ActionCounts[action], n, st.ActionCounts)
		}
	}
	var buf bytes.Buffer
	s.reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), mHealDur+"_count 1") {
		t.Fatalf("heal-duration histogram should record exactly one heal:\n%s", buf.String())
	}
}

func TestBudgetLastMember(t *testing.T) {
	fr := newFakeRing()
	fr.add(m1)
	fr.setHealth(m1, router.HealthDown)
	src := &fakeSource{}
	src.set(m1)
	s := newTestSup(t, fr, src, nil)

	tick(s, 3)
	if !fr.has(m1) || fr.draining(m1) {
		t.Fatal("the last ring member must never be drained, however unhealthy")
	}
	if got := s.reg.Value(mDenied, "reason", "last_member"); got < 1 {
		t.Fatalf("last_member denials = %v, want >= 1", got)
	}
	if s.Status().BudgetDenied["last_member"] < 1 {
		t.Fatal("status should surface the last_member denial")
	}
}

func TestBudgetDrainConcurrency(t *testing.T) {
	fr := newFakeRing()
	urls := []string{m1, m2, m3}
	for _, u := range urls {
		fr.add(u)
	}
	src := &fakeSource{}
	src.set(urls...)
	fr.setHealth(m1, router.HealthUp)
	fr.setHealth(m2, router.HealthDown)
	fr.setHealth(m3, router.HealthDown)
	s := newTestSup(t, fr, src, func(c *Config) {
		c.DrainTimeout = time.Hour // keep the first drain pending
	})

	tick(s, 1)
	d2, d3 := fr.draining(m2), fr.draining(m3)
	if !d2 || d3 {
		t.Fatalf("exactly the first unhealthy member should drain (got %v, %v); MaxConcurrentDrains=1", d2, d3)
	}
	if got := s.reg.Value(mDenied, "reason", "drain_concurrency"); got != 1 {
		t.Fatalf("drain_concurrency denials = %v, want 1", got)
	}
}

func TestBudgetMinHealthy(t *testing.T) {
	fr := newFakeRing()
	fr.add(m1)
	fr.add(m2)
	fr.setHealth(m1, router.HealthUp)
	fr.setHealth(m2, router.HealthUp)
	src := &fakeSource{}
	src.set(m1) // m2 is serving but no longer desired
	s := newTestSup(t, fr, src, func(c *Config) {
		c.MinHealthy = 2
		c.DrainTimeout = time.Hour
	})

	tick(s, 2)
	if fr.draining(m2) {
		t.Fatal("removing a serving member below the MinHealthy floor must be refused")
	}
	if got := s.reg.Value(mDenied, "reason", "min_healthy"); got < 1 {
		t.Fatalf("min_healthy denials = %v, want >= 1", got)
	}

	// Once the router judges the member down, removing it costs no
	// serving capacity — it must be removable even below the floor.
	fr.setHealth(m2, router.HealthDown)
	tick(s, 1)
	if !fr.draining(m2) {
		t.Fatal("a member judged down must be removable below the MinHealthy floor")
	}
}

// TestFlappingNeverOscillatesRing runs the supervisor against a real
// router whose two candidate members flap pass/fail on alternate
// healthz probes — one on the ring, one only watched. The prober never
// completes a streak, so neither verdict leaves unknown and the
// supervisor neither joins the one nor drains the other.
func TestFlappingNeverOscillatesRing(t *testing.T) {
	defer leak.Check(t)()
	flapper := func() *httptest.Server {
		var n atomic.Int64
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1)%2 == 0 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.WriteHeader(http.StatusOK)
		}))
	}
	on, off := flapper(), flapper()
	defer on.Close()
	defer off.Close()
	rt, err := router.New(router.Config{
		Backends:       []string{on.URL},
		HealthInterval: 5 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	src := &fakeSource{}
	src.set(on.URL, off.URL)
	s := newTestSup(t, rt, src, nil)

	for range 20 {
		tick(s, 1)
		time.Sleep(10 * time.Millisecond)
	}
	st := rt.State()
	if st.Epoch != 1 || len(st.Instances) != 2 || !st.Instances[0].OnRing || st.Instances[0].Draining {
		t.Fatalf("flapping members moved the ring (hysteresis failed): %+v", st)
	}
	for _, in := range st.Instances {
		if in.Health != router.HealthUnknown {
			t.Fatalf("%s verdict %q under strict alternation, want unknown", in.URL, in.Health)
		}
	}
	if n := len(s.Status().ActionCounts); n != 0 {
		t.Fatalf("supervisor acted on flapping members: %v", s.Status().ActionCounts)
	}
}

// TestOneHealthObserver: a router and a supervisor over the same
// members send one stream of healthz probes, not two — the router's
// prober is the only observer, at most one GET per URL per interval,
// whether the URL is a ring member or a candidate the supervisor has
// it watch.
func TestOneHealthObserver(t *testing.T) {
	defer leak.Check(t)()
	var gets [2]atomic.Int64
	backend := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				gets[i].Add(1)
			}
			w.WriteHeader(http.StatusOK)
		}))
	}
	on, off := backend(0), backend(1)
	defer on.Close()
	defer off.Close()

	const interval = 50 * time.Millisecond
	start := time.Now()
	rt, err := router.New(router.Config{
		Backends:       []string{on.URL},
		HealthInterval: interval,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{}
	src.set(on.URL, off.URL)
	s := newTestSup(t, rt, src, func(c *Config) { c.Interval = interval })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	time.Sleep(10 * interval)
	cancel()
	<-done
	rt.Close()
	n := int64(time.Since(start) / interval)

	for i, url := range []string{on.URL, off.URL} {
		if got := gets[i].Load(); got > n+1 {
			t.Errorf("%s served %d healthz GETs in %d probe intervals, want <= %d", url, got, n, n+1)
		}
	}
	if st := s.Status(); st.ActionCounts["join"] != 1 {
		t.Errorf("the watched candidate should have joined on the router's verdict: %+v", st)
	}
}

// TestUnobservedMembersReportUnknown: before the prober completes a
// streak, a ring member and a watched candidate both report unknown —
// in the router's /v1/healthz, its instance gauge and /v1/fleet — and
// the supervisor neither drains the one nor joins the other.
func TestUnobservedMembersReportUnknown(t *testing.T) {
	defer leak.Check(t)()
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer member.Close()
	const candidate = "http://candidate.test:1"
	reg := telemetry.NewRegistry()
	rt, err := router.New(router.Config{
		Backends:       []string{member.URL},
		HealthInterval: time.Hour, // one probe round, at New: no streak
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	src := &fakeSource{}
	src.set(member.URL, candidate)
	s := newTestSup(t, rt, src, func(c *Config) { c.Metrics = reg })
	rt.SetFleetStatus(func() any { return s.Status() })
	front := httptest.NewServer(rt)
	defer front.Close()
	tick(s, 3)

	get := func(path string, dst any) {
		t.Helper()
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d (%v)", path, resp.StatusCode, err)
		}
	}
	var hz router.State
	var fv struct {
		Router     router.State `json:"router"`
		Supervisor Status       `json:"supervisor"`
	}
	get("/v1/healthz", &hz)
	get("/v1/fleet", &fv)
	for _, st := range []router.State{hz, fv.Router} {
		if st.Status != "degraded" || len(st.Instances) != 2 {
			t.Fatalf("router state = %+v, want degraded with a member and a candidate", st)
		}
		for _, in := range st.Instances {
			if in.Health != router.HealthUnknown || in.OnRing != (in.URL == member.URL) {
				t.Fatalf("router reports %+v, want unknown (member on the ring, candidate off)", in)
			}
		}
	}
	for _, mv := range fv.Supervisor.Members {
		if mv.Health != router.HealthUnknown {
			t.Fatalf("/v1/fleet supervisor view %+v, want health unknown", mv)
		}
	}
	if len(fv.Supervisor.ActionCounts) != 0 || rt.State().Epoch != 1 {
		t.Fatalf("supervisor acted on unknown verdicts: %v (epoch %d)", fv.Supervisor.ActionCounts, rt.State().Epoch)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if want := `queryvis_router_instance_healthy{instance="` + member.URL + `"} 0`; !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics exposition lacks %q for an unobserved member", want)
	}
}

func TestRemoveUndesiredMember(t *testing.T) {
	fr := newFakeRing()
	fr.add(m1)
	fr.add(m2)
	src := &fakeSource{}
	src.set(m1) // m2 is on the ring but not desired
	s := newTestSup(t, fr, src, nil)

	tick(s, 1)
	if !fr.draining(m2) {
		t.Fatal("undesired member should be draining after the first reconcile")
	}
	tick(s, 1) // escalation past DrainTimeout
	if fr.has(m2) {
		t.Fatal("undesired member should be ejected once its drain escalates")
	}
	if !fr.has(m1) {
		t.Fatal("desired member must survive")
	}
	st := s.Status()
	if st.ActionCounts["remove"] != 1 || st.ActionCounts["eject"] != 1 {
		t.Fatalf("action counts = %v, want remove=1 eject=1", st.ActionCounts)
	}
}

func TestSourceErrorKeepsLastGoodSet(t *testing.T) {
	fr := newFakeRing()
	fr.setHealth(m1, router.HealthUp)
	src := &fakeSource{}
	src.set(m1)
	s := newTestSup(t, fr, src, nil)

	tick(s, 1)
	if !fr.has(m1) {
		t.Fatal("setup: member should have joined")
	}

	src.fail(errors.New("torn spec file"))
	tick(s, 3)
	if !fr.has(m1) || fr.draining(m1) {
		t.Fatal("a source error must not read as scale-to-zero; last good set should hold")
	}
	st := s.Status()
	if len(st.Desired) != 1 || st.Desired[0] != m1 {
		t.Fatalf("desired set = %v, want last good [%s]", st.Desired, m1)
	}
	if got := s.reg.Value(mReconcileErr, "kind", "source"); got != 3 {
		t.Fatalf("source error counter = %v, want 3", got)
	}
}

func TestSourceNeverGoodHoldsOff(t *testing.T) {
	// Two seeded members: with only one, the last-member budget rule
	// would mask the regression this test exists to catch.
	fr := newFakeRing()
	fr.add(m1)
	fr.add(m2)
	fr.setHealth(m1, router.HealthUp)
	fr.setHealth(m2, router.HealthUp)
	src := &fakeSource{}
	src.fail(errors.New("spec missing at boot"))
	s := newTestSup(t, fr, src, nil)

	// The source has never succeeded: the ring members the router was
	// seeded with must not be read as undesired and drained.
	tick(s, 4)
	if got := fr.opCount(); got != 0 {
		t.Fatalf("ring ops before first good read = %d, want 0", got)
	}
	if !fr.has(m1) || fr.draining(m1) {
		t.Fatal("seeded members must be untouched while the source has never succeeded")
	}
	if got := s.reg.Value(mReconciles); got != 4 {
		t.Fatalf("reconcile ticks = %v, want 4 (held-off ticks still count)", got)
	}

	// First good read unfreezes the loop.
	src.set(m1, m2)
	tick(s, 2)
	st := s.Status()
	if len(st.Desired) != 2 {
		t.Fatalf("desired set after recovery = %v, want both members", st.Desired)
	}
	if !fr.has(m1) || !fr.has(m2) {
		t.Fatal("members must stay on the ring after the source recovers")
	}
}

func TestSpecSource(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := write("good.json", `{"instances": [
		{"url": "http://127.0.0.1:8081"},
		{"url": "http://127.0.0.1:8082", "args": ["-cache-entries", "512"]}
	]}`)
	ms, err := (&SpecSource{Path: good}).Desired(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[1].URL != "http://127.0.0.1:8082" || len(ms[1].Args) != 2 {
		t.Fatalf("parsed spec = %+v", ms)
	}
	// URLs come back in the router's spelling, the one its verdicts use.
	slash := write("slash.json", `{"instances": [{"url": " http://127.0.0.1:8081/ "}]}`)
	if ms, err := (&SpecSource{Path: slash}).Desired(context.Background()); err != nil || ms[0].URL != "http://127.0.0.1:8081" {
		t.Fatalf("spec URL not normalized: %+v (err %v)", ms, err)
	}

	for name, body := range map[string]string{
		"nourl.json":   `{"instances": [{"args": ["-x"]}]}`,
		"notHTTP.json": `{"instances": [{"url": "ftp://a:1"}]}`,
		"dup.json":     `{"instances": [{"url": "http://a:1"}, {"url": "http://a:1/"}]}`,
		"torn.json":    `{"instances": [{"url": "http://a`,
	} {
		if _, err := (&SpecSource{Path: write(name, body)}).Desired(context.Background()); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
	if _, err := (&SpecSource{Path: filepath.Join(dir, "absent.json")}).Desired(context.Background()); err == nil {
		t.Error("absent file: want error, got none")
	}
}

// fakeResolver scripts SRV answers.
type fakeResolver struct {
	addrs []*net.SRV
	err   error
}

func (f *fakeResolver) LookupSRV(context.Context, string, string, string) (string, []*net.SRV, error) {
	return "", f.addrs, f.err
}

func TestSRVSource(t *testing.T) {
	src := &SRVSource{
		Resolver: &fakeResolver{addrs: []*net.SRV{
			{Target: "b.fleet.internal.", Port: 8082},
			{Target: "a.fleet.internal.", Port: 8081},
			{Target: "b.fleet.internal.", Port: 8082}, // duplicate answer
		}},
		Service: "queryvis", Proto: "tcp", Name: "fleet.internal",
	}
	ms, err := src.Desired(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a.fleet.internal:8081", "http://b.fleet.internal:8082"}
	if len(ms) != len(want) {
		t.Fatalf("members = %+v, want %v", ms, want)
	}
	for i, w := range want {
		if ms[i].URL != w {
			t.Fatalf("members[%d] = %q, want %q (sorted, deduped, root dot trimmed)", i, ms[i].URL, w)
		}
	}

	src.Resolver = &fakeResolver{err: errors.New("SERVFAIL")}
	if _, err := src.Desired(context.Background()); err == nil {
		t.Fatal("resolver error should propagate")
	}
}

func TestSpawnRespawnWithBackoff(t *testing.T) {
	defer leak.Check(t)()
	defer leak.CheckChildren(t)()
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(m1)
	s := newTestSup(t, fr, src, func(c *Config) {
		c.RespawnBase = 20 * time.Millisecond
		c.RespawnMax = 50 * time.Millisecond
		c.Spawn = func(m Member) (*exec.Cmd, error) {
			return exec.Command("true"), nil // exits immediately: a crash loop
		}
	})
	defer s.shutdown()

	tick(s, 1)
	if got := s.reg.Value(mActions, "action", "spawn"); got != 1 {
		t.Fatalf("spawn actions = %v, want 1", got)
	}

	// Each respawn waits out the jittered backoff first; ticking again
	// immediately must not relaunch.
	deadline := time.Now().Add(5 * time.Second)
	for s.reg.Value(mRespawns) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("respawns = %v, want >= 2 before deadline", s.reg.Value(mRespawns))
		}
		tick(s, 1)
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Status()
	var mv *memberView
	for i := range st.Members {
		if st.Members[i].URL == m1 {
			mv = &st.Members[i]
		}
	}
	if mv == nil || !mv.Managed || mv.Respawns < 2 {
		t.Fatalf("member view = %+v, want managed with >= 2 respawns", mv)
	}
}

func TestSpawnStopsUndesiredAndShutsDown(t *testing.T) {
	defer leak.Check(t)()
	defer leak.CheckChildren(t)()
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(m1)
	s := newTestSup(t, fr, src, func(c *Config) {
		c.Spawn = func(m Member) (*exec.Cmd, error) {
			return exec.Command("sleep", "60"), nil
		}
	})
	defer s.shutdown()

	tick(s, 1)
	s.mu.Lock()
	p := s.procs[m1]
	s.mu.Unlock()
	if p == nil || !p.running() {
		t.Fatal("desired member should have a live managed process")
	}

	// Dropping the member from desired state must terminate its process.
	src.set()
	tick(s, 1)
	s.mu.Lock()
	remaining := len(s.procs)
	s.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("%d managed processes remain for an empty desired set, want 0", remaining)
	}
	if p.running() {
		t.Fatal("undesired member's process should have been stopped")
	}
}

func TestFleetMetricsGolden(t *testing.T) {
	defer leak.Check(t)()
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(m1, m2)
	s := newTestSup(t, fr, src, nil)

	// Three ticks: verdicts still unknown (1), both judged up and
	// joined (2), gauges settle (3).
	tick(s, 1)
	fr.setHealth(m1, router.HealthUp)
	fr.setHealth(m2, router.HealthUp)
	tick(s, 2)

	var buf bytes.Buffer
	s.reg.WritePrometheus(&buf)
	var lines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "queryvis_fleet_") {
			lines = append(lines, line)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "fleet_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("fleet metrics exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
