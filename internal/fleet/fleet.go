// Package fleet is the self-healing control plane over the router's
// ring: a reconciliation loop that compares desired membership (a spec
// file, a DNS SRV watcher — anything implementing Source) against the
// router's health verdicts and drives the ring toward desired — joining
// newly discovered instances once up, drain-then-ejecting down ones,
// and rejoining recovered ones.
//
// The supervisor runs no prober of its own: each tick it hands the
// router its desired set (Ring.Watch), and the router's prober — the
// one health observer of the deployment — reports a verdict for every
// desired member, on the ring or not. Two properties make the loop safe
// to leave unattended:
//
//   - Hysteresis. The verdicts already carry the prober's streak
//     hysteresis, so a flapping link never reaches a verdict the
//     supervisor acts on; a member whose verdict is still unknown is
//     left alone.
//
//   - A disruption budget. Every removal is gated: at most
//     MaxConcurrentDrains drains in flight, never below the MinHealthy
//     floor of healthy serving members, never the last member. A denied
//     action is counted and logged, then retried on a later tick when
//     the budget allows — the supervisor heals the fleet strictly one
//     safe step at a time, because a control plane that reacts to a
//     partition by ejecting everything it cannot see is itself the
//     outage.
//
// With a Spawn function configured the supervisor also owns the member
// processes: it starts one per desired member, restarts exits with
// jittered exponential backoff (reset after a stable run, the same
// policy the worker pool applies to its children), and tears them down
// on shutdown. `queryvisd -route -fleet fleet.json -fleet-spawn` is
// thereby a one-command self-healing deployment.
//
// Every action and denial is counted in the telemetry registry and
// recorded in a bounded action log that the router's /v1/fleet endpoint
// surfaces, so "what did the supervisor do and why" is one GET away.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os/exec"
	"sync"
	"time"

	"repro/internal/router"
	"repro/internal/telemetry"
)

// Ring is the membership surface the supervisor drives and the health
// model it reads. *router.Router satisfies it.
type Ring interface {
	// Watch sets the off-ring URLs whose verdicts State reports.
	Watch(urls []string)
	State() router.State
	Join(url string) (epoch uint64, status string, err error)
	Drain(url string) (epoch uint64, err error)
	Eject(url string) (epoch uint64, err error)
}

// Metric families. Registered at New so the exposition is stable from
// the first scrape, empty or not.
const (
	mReconciles   = "queryvis_fleet_reconciles_total"
	mReconcileErr = "queryvis_fleet_reconcile_errors_total"
	mActions      = "queryvis_fleet_actions_total"
	mDenied       = "queryvis_fleet_budget_denied_total"
	mRespawns     = "queryvis_fleet_respawns_total"
	mDesired      = "queryvis_fleet_desired_members"
	mRingMembers  = "queryvis_fleet_ring_members"
	mUnhealthy    = "queryvis_fleet_unhealthy_members"
	mDrains       = "queryvis_fleet_pending_drains"
	mProcs        = "queryvis_fleet_managed_processes"
	mHealDur      = "queryvis_fleet_heal_duration_seconds"
)

// Config tunes the supervisor. Ring and Source are required; zero
// durations and counts take the documented defaults.
type Config struct {
	// Ring is the membership surface to reconcile (required).
	Ring Ring
	// Source yields desired membership each tick (required). A Source
	// error keeps the last good desired set — a torn spec file or a DNS
	// blip must not read as "desired: nobody".
	Source Source
	// Interval is the reconcile cadence (default 500ms).
	Interval time.Duration
	// MinHealthy is the disruption-budget floor: the supervisor refuses
	// any removal that would leave fewer routable, undraining members
	// serving (default 1). A member whose verdict is down does not
	// count toward the floor, so dead members are always removable.
	MinHealthy int
	// MaxConcurrentDrains caps drains in flight (default 1).
	MaxConcurrentDrains int
	// DrainTimeout escalates a drain that has not completed — the
	// member still on the ring, its in-flight requests apparently
	// immortal — to a hard eject (default 10s).
	DrainTimeout time.Duration
	// Spawn, when non-nil, turns on process supervision: it builds the
	// (unstarted) command for one desired member. The supervisor starts
	// it, watches it, and respawns it with backoff when it exits.
	Spawn func(Member) (*exec.Cmd, error)
	// RespawnBase/RespawnMax bound the respawn backoff ladder
	// (defaults 200ms / 5s).
	RespawnBase time.Duration
	RespawnMax  time.Duration
	// StableAfter is the uptime after which a respawned process is
	// considered stable and the backoff ladder resets (default 10s).
	StableAfter time.Duration
	// Seed fixes the jitter stream (0 ⇒ 1; determinism over entropy).
	Seed int64
	// Metrics receives the supervisor's counter/gauge families
	// (default: a private registry).
	Metrics *telemetry.Registry
	// Logger, when non-nil, gets one line per action, denial, and
	// respawn.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.MinHealthy <= 0 {
		c.MinHealthy = 1
	}
	if c.MaxConcurrentDrains <= 0 {
		c.MaxConcurrentDrains = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RespawnBase <= 0 {
		c.RespawnBase = 200 * time.Millisecond
	}
	if c.RespawnMax <= 0 {
		c.RespawnMax = 5 * time.Second
	}
	if c.StableAfter <= 0 {
		c.StableAfter = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Action is one entry in the bounded reconcile log: what the supervisor
// did (or refused to do), to whom, and why.
type Action struct {
	Time   time.Time `json:"time"`
	Action string    `json:"action"` // join|rejoin|drain|eject|remove|spawn|respawn|denied
	URL    string    `json:"url"`
	Detail string    `json:"detail,omitempty"`
}

// actionLogCap bounds the in-memory action log surfaced via /v1/fleet.
const actionLogCap = 64

// memberView is one member's reconciliation state in a Status snapshot.
type memberView struct {
	URL      string `json:"url"`
	Desired  bool   `json:"desired"`
	OnRing   bool   `json:"on_ring"`
	Draining bool   `json:"draining"`
	Health   string `json:"health"` // the router's verdict
	Managed  bool   `json:"managed,omitempty"`
	Respawns int64  `json:"respawns,omitempty"`
}

// Status is the supervisor's self-report, embedded in /v1/fleet.
type Status struct {
	Reconciles   int64            `json:"reconciles"`
	Desired      []string         `json:"desired"`
	Members      []memberView     `json:"members"`
	Actions      []Action         `json:"actions"`
	ActionCounts map[string]int64 `json:"action_counts"`
	BudgetDenied map[string]int64 `json:"budget_denied"`
}

// memberState is the supervisor's private ledger for one member URL.
type memberState struct {
	member       Member
	drainStarted time.Time // zero unless a drain we issued is pending
	downSince    time.Time // zero unless currently judged down (heal timer)
	everOnRing   bool      // distinguishes join from rejoin
}

// Supervisor runs the reconciliation loop. Create with New, drive with
// Run (blocking) or single ReconcileOnce steps in tests.
type Supervisor struct {
	cfg Config
	reg *telemetry.Registry

	rngMu sync.Mutex
	rng   *rand.Rand

	mu           sync.Mutex
	desired      []Member // last good desired set
	haveDesired  bool     // has the source ever succeeded?
	states       map[string]*memberState
	procs        map[string]*proc
	actions      []Action
	actionCounts map[string]int64
	denied       map[string]int64
	reconciles   int64

	poke chan struct{}
}

// New builds a Supervisor and registers its metric families.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("fleet: Config.Ring is required")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("fleet: Config.Source is required")
	}
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:          cfg,
		reg:          cfg.Metrics,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		states:       make(map[string]*memberState),
		procs:        make(map[string]*proc),
		actionCounts: make(map[string]int64),
		denied:       make(map[string]int64),
		poke:         make(chan struct{}, 1),
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}

	s.reg.Counter(mReconciles, "Reconcile ticks completed.")
	s.reg.Counter(mReconcileErr, "Reconcile errors by kind.", "kind", "source")
	for _, a := range []string{"join", "rejoin", "drain", "eject", "remove", "spawn", "respawn"} {
		s.reg.Counter(mActions, "Reconcile actions taken, by action.", "action", a)
	}
	for _, r := range []string{"drain_concurrency", "min_healthy", "last_member"} {
		s.reg.Counter(mDenied, "Actions refused by the disruption budget, by reason.", "reason", r)
	}
	s.reg.Counter(mRespawns, "Managed processes respawned after exit.")
	s.reg.GaugeFunc(mDesired, "Members in the desired set.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.desired))
	})
	s.reg.GaugeFunc(mProcs, "Managed member processes currently running.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, p := range s.procs {
			if p.running() {
				n++
			}
		}
		return float64(n)
	})
	s.reg.Gauge(mRingMembers, "Members on the ring at the last reconcile.")
	s.reg.Gauge(mUnhealthy, "Desired members currently judged unhealthy.")
	s.reg.Gauge(mDrains, "Drains currently pending on the ring.")
	s.reg.Histogram(mHealDur, "Seconds from a member judged down to back-on-ring healthy.",
		[]float64{0.5, 1, 2.5, 5, 10, 30, 60, 120})
	return s, nil
}

// Poke requests an immediate reconcile — the SIGHUP path after a spec
// edit. Coalesces: poking a loop that is already due is a no-op.
func (s *Supervisor) Poke() {
	select {
	case s.poke <- struct{}{}:
	default:
	}
}

// Run reconciles until ctx ends, then stops every managed process and
// returns. The first reconcile happens immediately, not a tick later.
func (s *Supervisor) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		s.ReconcileOnce(ctx)
		select {
		case <-ctx.Done():
			s.shutdown()
			return
		case <-t.C:
		case <-s.poke:
		}
	}
}

// shutdown tears down managed processes.
func (s *Supervisor) shutdown() {
	s.mu.Lock()
	procs := make([]*proc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// ReconcileOnce runs a single reconcile tick: refresh desired state,
// read the router's verdict on every member, then converge the ring one
// budgeted action at a time. Exported so tests (and the CI smoke) can
// step the loop deterministically.
func (s *Supervisor) ReconcileOnce(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	// 1. Desired state. A source error keeps the previous set — and if
	// the source has NEVER succeeded there is no previous set to keep,
	// so the supervisor must not act at all: an unreadable spec at boot
	// would otherwise read as "desired: nobody" and start draining
	// whatever the ring was seeded with.
	desired, err := s.cfg.Source.Desired(ctx)
	s.mu.Lock()
	if err != nil {
		s.reg.Counter(mReconcileErr, "Reconcile errors by kind.", "kind", "source").Inc()
		if !s.haveDesired {
			s.log("desired-state source failed before first good read; holding off", "err", err)
			s.reconciles++
			s.reg.Counter(mReconciles, "Reconcile ticks completed.").Inc()
			s.mu.Unlock()
			return
		}
		s.log("desired-state source failed; keeping last good set", "err", err)
		desired = s.desired
	} else {
		s.desired = desired
		s.haveDesired = true
	}
	spawnOn := s.cfg.Spawn != nil
	s.mu.Unlock()

	// 2. Process supervision: every desired member gets a running
	// process (spawn mode only).
	if spawnOn {
		s.ensureProcesses(desired)
	}

	// 3. Observe: keep the router's prober watching every desired
	// member, then read its verdicts for the ring and the watch list.
	urls := make([]string, len(desired))
	for i, m := range desired {
		urls[i] = m.URL
	}
	s.cfg.Ring.Watch(urls)
	ringState := s.cfg.Ring.State()

	// 4. Converge.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reconcileLocked(desired, ringState.Instances)
	s.reconciles++
	s.reg.Counter(mReconciles, "Reconcile ticks completed.").Inc()
}

// reconcileLocked converges the ring toward the desired set, acting
// only on verdicts: a down member on the ring is drained, an up member
// off it is (re)joined, and an unknown one is left alone. Caller holds
// s.mu.
func (s *Supervisor) reconcileLocked(desired []Member, seen []router.InstanceState) {
	now := time.Now()
	verdicts := make(map[string]router.InstanceState, len(seen))
	onRing := make(map[string]router.InstanceState, len(seen))
	for _, in := range seen {
		verdicts[in.URL] = in
		if in.OnRing {
			onRing[in.URL] = in
		}
	}
	desiredSet := make(map[string]bool, len(desired))
	unhealthy := 0

	// Verdict bookkeeping for every desired member.
	for _, m := range desired {
		desiredSet[m.URL] = true
		st := s.states[m.URL]
		if st == nil {
			st = &memberState{member: m}
			s.states[m.URL] = st
		}
		st.member = m
		in := verdicts[m.URL] // zero (no verdict) until Watch lands
		if in.OnRing {
			st.everOnRing = true
		}
		if in.Health == router.HealthDown {
			unhealthy++
			if st.downSince.IsZero() {
				st.downSince = now
			}
		}
	}
	// Forget members that are neither desired nor on the ring.
	for url, st := range s.states {
		if !desiredSet[url] {
			if _, stillOn := onRing[url]; !stillOn {
				if !st.drainStarted.IsZero() || st.everOnRing {
					delete(s.states, url)
				}
			}
		}
	}

	// serving counts the members the router may route to: on the ring,
	// not draining, and not down (unknown is routable).
	pendingDrains := 0
	serving := 0
	for _, in := range onRing {
		if in.Draining {
			pendingDrains++
		} else if in.Health != router.HealthDown {
			serving++
		}
	}
	s.reg.Gauge(mRingMembers, "Members on the ring at the last reconcile.").Set(int64(len(onRing)))
	s.reg.Gauge(mUnhealthy, "Desired members currently judged unhealthy.").Set(int64(unhealthy))
	s.reg.Gauge(mDrains, "Drains currently pending on the ring.").Set(int64(pendingDrains))

	// budget answers "may I remove target now" — the one gate every
	// drain, eject, and removal passes through.
	budget := func(target string) (ok bool, reason string) {
		in, on := onRing[target]
		if !on {
			return true, "" // off-ring: nothing to disrupt
		}
		if len(onRing) <= 1 {
			return false, "last_member"
		}
		if in.Draining {
			return true, "" // already budgeted when the drain started
		}
		if pendingDrains >= s.cfg.MaxConcurrentDrains {
			return false, "drain_concurrency"
		}
		// The floor gates the *delta*, not the absolute: removing a
		// member the router already judges down costs no serving
		// capacity, so dead members stay removable even below the floor.
		after := serving
		if in.Health != router.HealthDown {
			after--
		}
		if after < serving && after < s.cfg.MinHealthy {
			return false, "min_healthy"
		}
		return true, ""
	}
	deny := func(action, target, reason string) {
		s.denied[reason]++
		s.reg.Counter(mDenied, "Actions refused by the disruption budget, by reason.", "reason", reason).Inc()
		s.record(Action{Time: now, Action: "denied", URL: target,
			Detail: action + " refused: " + reason})
		s.log("disruption budget denied action", "action", action, "member", target, "reason", reason)
	}
	// startRemoval drains target (escalating to eject on DrainTimeout in
	// later ticks) and keeps the budget accounting coherent within this
	// tick.
	startRemoval := func(st *memberState, action, detail string) {
		target := st.member.URL
		ok, reason := budget(target)
		if !ok {
			deny(action, target, reason)
			return
		}
		if _, err := s.cfg.Ring.Drain(target); err != nil {
			s.log("drain failed", "member", target, "err", err)
			return
		}
		if st.drainStarted.IsZero() {
			st.drainStarted = now
		}
		in := onRing[target]
		if !in.Draining { // newly started drain consumes budget this tick
			pendingDrains++
			if in.Health != router.HealthDown {
				serving--
			}
		}
		s.act(now, action, target, detail)
	}

	// 5a. Remove ring members that are no longer desired.
	for url, in := range onRing {
		if desiredSet[url] {
			continue
		}
		st := s.states[url]
		if st == nil {
			st = &memberState{member: Member{URL: url}, everOnRing: true}
			s.states[url] = st
		}
		if st.drainStarted.IsZero() {
			startRemoval(st, "remove", "not in desired set")
		}
		s.escalate(st, in, now)
	}

	// 5b. Drain desired members the router judges down; escalate stuck
	// drains.
	for _, m := range desired {
		st := s.states[m.URL]
		in, on := onRing[m.URL]
		if !on {
			st.drainStarted = time.Time{}
			continue
		}
		if in.Health == router.HealthDown && st.drainStarted.IsZero() && !in.Draining {
			startRemoval(st, "drain", "router verdict down")
		}
		s.escalate(st, in, now)
	}

	// 5c. Join (or rejoin) desired members the router judges up that are
	// off the ring. Joins are additive — they never consume disruption
	// budget.
	for _, m := range desired {
		st := s.states[m.URL]
		if in := verdicts[m.URL]; in.OnRing || in.Health != router.HealthUp {
			continue
		}
		action := "join"
		if st.everOnRing {
			action = "rejoin"
		}
		if _, _, err := s.cfg.Ring.Join(m.URL); err != nil {
			s.log("join failed", "member", m.URL, "err", err)
			continue
		}
		st.everOnRing = true
		st.drainStarted = time.Time{}
		if !st.downSince.IsZero() {
			s.reg.Histogram(mHealDur, "Seconds from a member judged down to back-on-ring healthy.",
				[]float64{0.5, 1, 2.5, 5, 10, 30, 60, 120}).Observe(now.Sub(st.downSince).Seconds())
			st.downSince = time.Time{}
		}
		s.act(now, action, m.URL, "")
	}
}

// escalate hard-ejects a member whose drain has outlived DrainTimeout.
// Caller holds s.mu.
func (s *Supervisor) escalate(st *memberState, in router.InstanceState, now time.Time) {
	if st.drainStarted.IsZero() || now.Sub(st.drainStarted) < s.cfg.DrainTimeout {
		return
	}
	if _, err := s.cfg.Ring.Eject(st.member.URL); err != nil {
		s.log("eject escalation failed", "member", st.member.URL, "err", err)
		return
	}
	st.drainStarted = time.Time{}
	s.act(now, "eject", st.member.URL,
		fmt.Sprintf("drain exceeded %s; escalated (inflight %d)", s.cfg.DrainTimeout, in.Inflight))
}

// act counts and logs one completed action. Caller holds s.mu.
func (s *Supervisor) act(now time.Time, action, url, detail string) {
	s.actionCounts[action]++
	s.reg.Counter(mActions, "Reconcile actions taken, by action.", "action", action).Inc()
	s.record(Action{Time: now, Action: action, URL: url, Detail: detail})
	s.log("reconcile action", "action", action, "member", url, "detail", detail)
}

// record appends to the bounded action log. Caller holds s.mu.
func (s *Supervisor) record(a Action) {
	s.actions = append(s.actions, a)
	if len(s.actions) > actionLogCap {
		s.actions = s.actions[len(s.actions)-actionLogCap:]
	}
}

// Status snapshots the supervisor for /v1/fleet. Safe for concurrent
// use; wire it up with router.SetFleetStatus(func() any { return
// sup.Status() }).
func (s *Supervisor) Status() Status {
	seen := make(map[string]router.InstanceState)
	for _, in := range s.cfg.Ring.State().Instances {
		seen[in.URL] = in
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Reconciles:   s.reconciles,
		Desired:      make([]string, 0, len(s.desired)),
		Actions:      append([]Action(nil), s.actions...),
		ActionCounts: make(map[string]int64, len(s.actionCounts)),
		BudgetDenied: make(map[string]int64, len(s.denied)),
	}
	desiredSet := make(map[string]bool, len(s.desired))
	for _, m := range s.desired {
		st.Desired = append(st.Desired, m.URL)
		desiredSet[m.URL] = true
	}
	for k, v := range s.actionCounts {
		st.ActionCounts[k] = v
	}
	for k, v := range s.denied {
		st.BudgetDenied[k] = v
	}
	for url := range s.states {
		in := seen[url]
		mv := memberView{
			URL:      url,
			Desired:  desiredSet[url],
			OnRing:   in.OnRing,
			Draining: in.Draining,
			Health:   in.Health,
		}
		if mv.Health == "" {
			mv.Health = router.HealthUnknown // not watched (yet)
		}
		if p, ok := s.procs[url]; ok {
			mv.Managed = true
			mv.Respawns = p.respawns
		}
		st.Members = append(st.Members, mv)
	}
	return st
}

func (s *Supervisor) log(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("fleet: "+msg, args...)
	}
}

// jitter draws a seeded perturbation of d in [d/2, d].
func (s *Supervisor) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return d/2 + time.Duration(s.rng.Int63n(int64(d)/2+1))
}
