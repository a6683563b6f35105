package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diagcache"
	"repro/internal/dot"
	"repro/internal/inverse"
	"repro/internal/logictree"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/svg"
	"repro/internal/trc"
	"repro/internal/workerpool"
)

// The traced pass splits requests into the modules they cross, from
// outside the program. It replays a seed-chosen sample serially. Each
// traced request is one live call, whose client, router and instance
// handler spans are taken around the real calls (the hooks in
// stack.go), followed at once by a replay of the work the instance did
// for it: the same public stage functions the server calls, in the same
// order, on the same SQL, and for fabric-skew a Pool.Do of the same body
// and the in-process handler on it. Replayed spans are children of the
// live instance span, so the instance's self time is its handler time
// minus the stages it ran.

// reconcileTolerance bounds |trace.unattributed_us| as a share of the
// traced end-to-end time: replayed stages may claim more time than the
// live instance span holding them by at most this much.
const reconcileTolerance = 0.10

// span is one timed interval of one traced request.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the request's root
	Name   string `json:"name"`
	Inst   int    `json:"inst,omitempty"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e3 } // µs

// tracer hands the hooks' live spans to the traced pass; the pass keeps
// every span in memory (ledger.spans) and writes them out when it ends.
type tracer struct {
	on  atomic.Bool
	mu  sync.Mutex
	t0  time.Time
	cur []span // live spans of the current request, from the hooks
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) live(name string, inst int, a, b time.Time) {
	t.mu.Lock()
	t.cur = append(t.cur, span{Name: name, Inst: inst, Start: a.Sub(t.t0).Nanoseconds(), End: b.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// takeLive waits until the hooks have recorded every name in want (a
// hook records just before its response's last bytes are flushed, so
// this is a short spin at most) and returns the live spans.
func (t *tracer) takeLive(want ...string) ([]span, error) {
	deadline := time.Now().Add(time.Second)
	for {
		t.mu.Lock()
		have := 0
		for _, w := range want {
			for _, s := range t.cur {
				if s.Name == w {
					have++
					break
				}
			}
		}
		if have == len(want) {
			out := append([]span(nil), t.cur...)
			t.cur = t.cur[:0]
			t.mu.Unlock()
			return out, nil
		}
		t.mu.Unlock()
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("hook spans %v not recorded", want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// Layer each span name's self time is charged to.
var layerOf = map[string]string{
	"client":             "http.client_overhead",
	"router":             "router.hop",
	"server":             "server.overhead",
	"workerpool.do":      "workerpool.ipc",
	"workerpool.handler": "server.overhead",
}

func layerFor(name string) string {
	if l, ok := layerOf[name]; ok {
		return l
	}
	return name
}

// Cache outcomes as the traced pass classifies a request.
const (
	outExact   = "hit"
	outPattern = "hit_pattern"
	outMiss    = "miss"
	outRouter  = "router"
)

// stagesFor lists the stage calls the server makes for an outcome, in
// its order: exact lookup; on a lookup miss the unverified probe build
// and its pattern key; on a pattern miss verification and the three
// renderings the cache entry holds.
func stagesFor(outcome string) []string {
	probe := []string{"sqlparse.parse", "sqlparse.resolve", "trc.convert", "logictree.tree", "core.build", "core.patternkey"}
	switch outcome {
	case outExact:
		return []string{"diagcache.lookup"}
	case outPattern:
		return append([]string{"diagcache.lookup"}, probe...)
	case outRouter:
		return nil
	case string(diagcache.OutcomeUncacheable):
		// Unkeyable pattern: the server verifies its own probe result and
		// renders only the requested format.
		return append(append([]string{"diagcache.lookup"}, probe...), "inverse.verify", "dot.render")
	}
	return append(append([]string{"diagcache.lookup"}, probe...),
		"inverse.verify", "dot.render", "svg.render", "dot.text")
}

// stageRun holds one replay's intermediate artifacts.
type stageRun struct {
	sql      string
	sch      *schema.Schema
	cache    *diagcache.Cache
	cacheKey string
	q        *sqlparse.Query
	res      *sqlparse.Resolution
	expr     *trc.Expr
	lt       *logictree.LT
	d        *core.Diagram
	nodes    int
	budget   bool
	verified bool
}

// call runs one stage the way the server's pipeline does.
func (r *stageRun) call(ctx context.Context, name string) error {
	var err error
	switch name {
	case "diagcache.lookup":
		r.cache.GetExact(r.cacheKey, true)
	case "sqlparse.parse":
		r.q, err = sqlparse.ParseContext(ctx, r.sql)
	case "sqlparse.resolve":
		r.res, err = sqlparse.ResolveContext(ctx, r.q, r.sch)
	case "trc.convert":
		r.expr, err = trc.ConvertContext(ctx, r.q, r.res)
	case "logictree.tree":
		if r.lt, err = logictree.FromTRCContext(ctx, r.expr); err == nil {
			_, err = r.lt.FlattenContext(ctx)
		}
	case "core.build":
		if r.d, err = core.BuildContext(ctx, r.lt); err == nil {
			core.Interpret(r.lt)
		}
	case "core.patternkey":
		core.PatternKeyBounded(r.d, 720)
	case "inverse.verify":
		r.verified = true
		_, r.nodes, err = inverse.RecoverContextStats(ctx, r.d, 0)
		var be *inverse.BudgetError
		if r.budget = errors.As(err, &be); r.budget {
			err = nil
		}
	case "dot.render":
		_, err = dot.RenderContext(ctx, r.d, dot.Options{})
	case "svg.render":
		_, err = svg.RenderContext(ctx, r.d)
	case "dot.text":
		dot.Text(r.d)
	default:
		err = fmt.Errorf("unknown stage %q", name)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// serverCacheKey mirrors the server's exact-text cache key
// (internal/server/cache.go: schema, simplify flag, SQL).
func serverCacheKey(q *query) string { return q.Schema + "\x000\x00" + q.SQL }

// ledger is the traced pass's result for one workload.
type ledger struct {
	Requests     int                `json:"requests"`
	E2EUS        float64            `json:"e2e_us"`          // Σ traced client time
	SelfUS       map[string]float64 `json:"self_us"`         // Σ self time per layer
	LayerReqs    map[string]int     `json:"layer_requests"`  // traced requests entering each layer
	Unattributed float64            `json:"unattributed_us"` // Σ, signed
	HandlerUS    float64            `json:"handler_us"`      // Σ live instance handler time
	Handlers     int                `json:"handlers"`
	DoUS         float64            `json:"do_us"` // Σ replayed Pool.Do time
	Dos          int                `json:"dos"`
	Allocs       map[string]float64 `json:"allocs"` // Σ mallocs per stage
	Calls        map[string]int     `json:"calls"`
	Verifies     int                `json:"verifies"`
	Nodes        int                `json:"nodes"`
	Exhausted    int                `json:"budget_exhausted"`
	TracedUS     []float64          `json:"-"`
	UntracedUS   []float64          `json:"-"`
	spans        []span
}

// tracePass replays in.sample serially on client 0 as pairs: one
// request untraced, one traced, in a seed-chosen order within the pair,
// and then the traced request's replay. Each half is preceded by a
// replay as often as the other, so their client times compare like with
// like on the same evolving stack state.
func (st *stack) tracePass(ctx context.Context, in *inputs, sent []atomic.Bool, seed int64) (*ledger, error) {
	lg := &ledger{SelfUS: map[string]float64{}, LayerReqs: map[string]int{},
		Allocs: map[string]float64{}, Calls: map[string]int{}}
	coin := rand.New(rand.NewSource(seed + 11))
	for i := 0; i+1 < len(in.sample); i += 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Start each pair on a collected heap, so that a collection owed to
		// earlier work does not land inside one replayed stage.
		runtime.GC()
		u, t := &in.queries[in.sample[i]], &in.queries[in.sample[i+1]]
		sent[in.sample[i]].Store(true)
		tFirst := !sent[in.sample[i+1]].Swap(true)
		untraced := func() error {
			rec := send(ctx, st.clients[0], st.front, u)
			if rec.kind != kindOK {
				return fmt.Errorf("untraced replay: request failed (kind %d)", rec.kind)
			}
			lg.UntracedUS = append(lg.UntracedUS, float64(rec.latUS))
			return nil
		}
		if coin.Intn(2) == 0 {
			if err := untraced(); err != nil {
				return nil, err
			}
		}
		p, err := st.traceLive(ctx, lg, t, tFirst)
		if err != nil {
			return nil, err
		}
		if len(lg.UntracedUS) < len(lg.TracedUS) {
			if err := untraced(); err != nil {
				return nil, err
			}
		}
		if err := st.traceReplay(ctx, lg, p); err != nil {
			return nil, err
		}
	}
	lg.account()
	return lg, nil
}

// outcomeCounts snapshots the direct instance's cache outcome counters.
func (st *stack) outcomeCounts() map[string]float64 {
	m := map[string]float64{}
	in := st.insts[0]
	for _, o := range []diagcache.Outcome{diagcache.OutcomeHit, diagcache.OutcomeHitPattern,
		diagcache.OutcomeHitFlight, diagcache.OutcomeMiss, diagcache.OutcomeUncacheable, diagcache.OutcomeBypass} {
		m[string(o)] = in.reg.Value(diagcache.MetricRequests, "outcome", string(o))
	}
	return m
}

// pending is a traced request whose live call is done and whose replay
// is still to come.
type pending struct {
	q        *query
	outcome  string
	spans    []span
	serverID int
	inst     int
}

// traceLive makes the live call of one traced request and classifies
// what the instance did for it.
func (st *stack) traceLive(ctx context.Context, lg *ledger, q *query, first bool) (*pending, error) {
	tr := st.tr
	req := lg.Requests
	lg.Requests++
	direct := st.rt == nil
	var before map[string]float64
	if direct {
		before = st.outcomeCounts()
	}
	tr.on.Store(true)
	rec, c0, c1 := sendTimed(ctx, st.clients[0], st.front, q)
	tr.on.Store(false)
	if rec.kind != kindOK {
		return nil, fmt.Errorf("traced replay: request failed (kind %d)", rec.kind)
	}
	lg.TracedUS = append(lg.TracedUS, float64(rec.latUS))

	want := []string{"server"}
	outcome := outMiss
	switch {
	case direct:
		after := st.outcomeCounts()
		for o, v := range after {
			if v > before[o] {
				outcome = o
			}
		}
		if outcome == string(diagcache.OutcomeHitFlight) {
			outcome = outMiss
		}
	case rec.router != 0:
		want, outcome = []string{"router"}, outRouter
	default:
		want = []string{"router", "server"}
		if rec.hit {
			// Worker caches are not observable from outside; a hit on a
			// query this run never sent before can only be a pattern hit.
			outcome = outExact
			if first {
				outcome = outPattern
			}
		}
	}
	live, err := tr.takeLive(want...)
	if err != nil {
		return nil, err
	}
	p := &pending{q: q, outcome: outcome, serverID: -1}
	p.spans = []span{{Req: req, ID: 0, Parent: -1, Name: "client",
		Start: c0.Sub(tr.t0).Nanoseconds(), End: c1.Sub(tr.t0).Nanoseconds()}}
	parent := 0
	for _, name := range []string{"router", "server"} {
		for _, s := range live {
			if s.Name == name {
				s.Req, s.ID, s.Parent = req, len(p.spans), parent
				p.spans = append(p.spans, s)
				parent = s.ID
				if name == "server" {
					p.serverID, p.inst = s.ID, s.Inst
				}
			}
		}
	}
	return p, nil
}

// traceReplay replays, under the live instance span, the stage calls the
// instance made for the request, then counts their allocations in a
// second, untimed replay.
func (st *stack) traceReplay(ctx context.Context, lg *ledger, p *pending) error {
	defer func() { lg.spans = append(lg.spans, p.spans...) }()
	if p.serverID < 0 {
		return nil
	}
	tr, q := st.tr, p.q
	replay := func(name string, parent int, f func() error) (int, error) {
		a := time.Now()
		err := f()
		b := time.Now()
		id := len(p.spans)
		p.spans = append(p.spans, span{Req: p.spans[0].Req, ID: id, Parent: parent, Name: name, Replay: true,
			Start: a.Sub(tr.t0).Nanoseconds(), End: b.Sub(tr.t0).Nanoseconds()})
		return id, err
	}
	stages := stagesFor(p.outcome)
	sch, _ := schema.ByName(q.Schema)
	run := &stageRun{sql: q.SQL, sch: sch, cacheKey: serverCacheKey(q)}
	if st.rt == nil {
		run.cache = st.insts[0].cache
	} else {
		// The worker's handler, lookup included, sits under Pool.Do;
		// replay it on the in-process twin with a warmed cache entry.
		run.cache = st.localCache
		stages = stages[1:]
		st.serveLocal(q)
		doID, err := replay("workerpool.do", p.serverID, func() error {
			resp, err := st.insts[p.inst].pool.Do(ctx, workerpool.Request{Endpoint: "/v1/diagram", Body: q.body})
			if err == nil && resp.Status != 200 {
				err = fmt.Errorf("status %d", resp.Status)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("replay Pool.Do: %w", err)
		}
		hID, _ := replay("workerpool.handler", doID, func() error { st.serveLocal(q); return nil })
		if _, err := replay("diagcache.lookup", hID, func() error { return run.call(ctx, "diagcache.lookup") }); err != nil {
			return err
		}
	}
	for _, name := range stages {
		if _, err := replay(name, p.serverID, func() error { return run.call(ctx, name) }); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	if run.verified {
		lg.Verifies++
		lg.Nodes += run.nodes
		if run.budget {
			lg.Exhausted++
		}
	}
	arun := &stageRun{sql: q.SQL, sch: sch, cache: run.cache, cacheKey: run.cacheKey}
	for _, name := range stagesFor(p.outcome) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := arun.call(ctx, name)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("alloc replay: %w", err)
		}
		lg.Allocs[name] += float64(m1.Mallocs - m0.Mallocs)
		lg.Calls[name]++
	}
	return nil
}

// serveLocal runs the in-process worker-configured handler on q.
func (st *stack) serveLocal(q *query) {
	r := httptest.NewRequest("POST", "/v1/diagram", strings.NewReader(string(q.body)))
	r.Header.Set("Content-Type", "application/json")
	st.local.ServeHTTP(httptest.NewRecorder(), r)
}

// account computes self times: a span's duration minus its children's.
// A negative remainder (replayed children that took longer than the live
// span holding them) is charged to no layer; it is the signed
// unattributed time, so Σ layer self time + unattributed = Σ client time.
func (lg *ledger) account() {
	byReq := map[int][]span{}
	for _, s := range lg.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, spans := range byReq {
		child := make([]float64, len(spans))
		for _, s := range spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.dur()
			}
		}
		entered := map[string]bool{}
		for i, s := range spans {
			self := s.dur() - child[i]
			if self < 0 {
				lg.Unattributed += self
				self = 0
			}
			l := layerFor(s.Name)
			lg.SelfUS[l] += self
			entered[l] = true
			switch s.Name {
			case "client":
				lg.E2EUS += s.dur()
			case "server":
				lg.HandlerUS += s.dur()
				lg.Handlers++
			case "workerpool.do":
				lg.DoUS += s.dur()
				lg.Dos++
			}
		}
		for l := range entered {
			lg.LayerReqs[l]++
		}
	}
}

// attributed is Σ layer self time.
func (lg *ledger) attributed() float64 {
	var sum float64
	for _, v := range lg.SelfUS {
		sum += v
	}
	return sum
}

// perReq is a layer's self time per traced request that entered it.
func (lg *ledger) perReq(layer string) float64 {
	if lg.LayerReqs[layer] == 0 {
		return 0
	}
	return lg.SelfUS[layer] / float64(lg.LayerReqs[layer])
}

func (lg *ledger) allocsPerCall(stage string) float64 {
	if lg.Calls[stage] == 0 {
		return 0
	}
	return lg.Allocs[stage] / float64(lg.Calls[stage])
}

// overheadShare compares the traced and untraced halves' median client
// time.
func (lg *ledger) overheadShare() float64 {
	if len(lg.TracedUS) == 0 || len(lg.UntracedUS) == 0 {
		return 0
	}
	return median(lg.TracedUS)/median(lg.UntracedUS) - 1
}

// writeSpans writes the pass's spans as JSON into dir.
func (lg *ledger) writeSpans(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Ledger   *ledger `json:"ledger"`
		Spans    []span  `json:"spans"`
	}{workload, seed, lg, lg.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), b, 0o644)
}
