package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	queryvis "repro"
	"repro/internal/schema"
)

// Outcome kinds of one request.
const (
	kindOK        = iota // 200 with a well-formed diagram body
	kindTransport        // no response
	kindStatus           // a response other than 200
	kindMalformed        // 200 without a well-formed diagram body
)

// record is one completed or failed request as the client saw it.
type record struct {
	q      int32
	kind   uint8
	first  bool    // the first time this run sent this query
	hit    bool    // X-Queryvis-Cache: hit (the serving cache answered)
	router uint8   // 1: router cache hit, 2: coalesced onto another request
	bad    bool    // failed, or a wrong diagram (set by the audit)
	latUS  float32 // client-observed latency
	doneMS float32 // completion time since the measured phase began
	hash   uint64  // fnv-64a of format and diagram
}

// reply is the part of a diagram response the audit reads.
type reply struct {
	Format  string `json:"format"`
	Diagram string `json:"diagram"`
}

func diagramHash(format, diagram string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(format))
	h.Write([]byte{0})
	h.Write([]byte(diagram))
	return h.Sum64()
}

// send performs one diagram request on c and classifies the response.
func send(ctx context.Context, c *http.Client, url string, q *query) record {
	rec, _, _ := sendTimed(ctx, c, url, q)
	return rec
}

// sendTimed is send, also returning when the request was sent and when
// its reply had been read.
func sendTimed(ctx context.Context, c *http.Client, url string, q *query) (rec record, t0, t1 time.Time) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/diagram", bytes.NewReader(q.body))
	if err != nil {
		rec.kind = kindTransport
		return rec, t0, t0
	}
	req.Header.Set("Content-Type", "application/json")
	t0 = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		t1 = time.Now()
		rec.kind = kindTransport
		rec.latUS = float32(t1.Sub(t0).Nanoseconds()) / 1e3
		return rec, t0, t1
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 = time.Now()
	rec.latUS = float32(t1.Sub(t0).Nanoseconds()) / 1e3
	switch {
	case err != nil:
		rec.kind = kindTransport
		return rec, t0, t1
	case resp.StatusCode != http.StatusOK:
		rec.kind = kindStatus
		return rec, t0, t1
	}
	var rp reply
	if json.Unmarshal(body, &rp) != nil || rp.Diagram == "" || rp.Format == "" {
		rec.kind = kindMalformed
		return rec, t0, t1
	}
	rec.hash = diagramHash(rp.Format, rp.Diagram)
	rec.hit = resp.Header.Get("X-Queryvis-Cache") == "hit"
	switch resp.Header.Get("X-Queryvis-Router-Cache") {
	case "hit":
		rec.router = 1
	case "coalesced":
		rec.router = 2
	}
	return rec, t0, t1
}

// drive runs the closed loop: every client sends its next request only
// after the previous reply arrived, taking the next entry of the shared
// sequence. Time-bounded workloads stop at the deadline; cold-direct
// stops when the sequence is spent (or, as a safety net, at four times
// the deadline). tick is called every window while the loop runs.
func (st *stack) drive(ctx context.Context, in *inputs, sent []atomic.Bool, seconds int, tick func(time.Duration)) ([]record, time.Duration) {
	var next atomic.Int64
	per := make([][]record, len(st.clients))
	limit := time.Duration(seconds) * time.Second
	if in.fixedCount {
		limit *= 4
	}
	start := time.Now()
	deadline := start.Add(limit)
	stopTick := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case now := <-t.C:
				tick(now.Sub(start))
			}
		}
	}()
	var wg sync.WaitGroup
	for ci, c := range st.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			recs := make([]record, 0, 1<<16)
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if in.fixedCount && i >= int64(len(in.seq)) {
					break
				}
				qi := in.seq[i%int64(len(in.seq))]
				first := !sent[qi].Swap(true)
				rec := send(ctx, c, st.front, &in.queries[qi])
				rec.q, rec.first = qi, first
				rec.doneMS = float32(time.Since(start).Nanoseconds()) / 1e6
				recs = append(recs, rec)
			}
			per[ci] = recs
		}(ci, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopTick)
	<-ticked
	var all []record
	for _, r := range per {
		all = append(all, r...)
	}
	return all, elapsed
}

// ref is the uncached facade's answer for one query.
type ref struct {
	hash    uint64 // fnv-64a of format and diagram; 0 when the facade failed
	pattern uint64 // fnv-64a of the diagram's pattern key; 0 if unkeyable
	status  string // verify status
}

// references computes, in parallel, what the uncached facade serves for
// each listed query: queryvis.FromSQLContext with the daemon's limits and
// verify mode, then DOTContext (or the TRC text on the TRC rung, as the
// server does).
func references(ctx context.Context, in *inputs, want []int32) map[int32]ref {
	out := make(map[int32]ref, len(want))
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	lim := queryvis.DefaultLimits()
	opts := queryvis.Options{Limits: &lim, Verify: queryvis.VerifyDegrade}
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(want)) {
					return
				}
				q := &in.queries[want[i]]
				r := reference(ctx, q, opts)
				mu.Lock()
				out[want[i]] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func reference(ctx context.Context, q *query, opts queryvis.Options) ref {
	s, _ := schema.ByName(q.Schema)
	res, err := queryvis.FromSQLContext(ctx, q.SQL, s, opts)
	if err != nil {
		return ref{}
	}
	r := ref{status: res.VerifyStatus}
	format, out := "dot", ""
	if res.Degraded == queryvis.RungTRC {
		format, out = "trc", res.TRCText
	} else if out, err = res.DOTContext(ctx, queryvis.DOTOptions{}); err != nil {
		return ref{}
	}
	r.hash = diagramHash(format, out)
	if res.Diagram != nil {
		if k, ok := queryvis.PatternFingerprintBounded(res.Diagram, queryvis.DefaultFingerprintPerms); ok {
			h := fnv.New64a()
			h.Write([]byte(k))
			r.pattern = h.Sum64()
		}
	}
	return r
}

// audit is the verdict over one run's records.
type audit struct {
	attempted, completed, failed int
	wrong                        int // 200s whose diagram differs from the reference
	wrongHit                     int // ... of which a cache answered
	explained                    int // wrong, and equal to an isomorphic query's diagram
	unexplained                  int // wrong in any other way, or the facade itself failed
	statuses                     map[string]int
}

// auditRecords byte-compares every 200's diagram with the reference for
// its query. A wrong diagram that equals the reference diagram of another
// query with the same pattern key is the known pattern-cache defect
// (README.md); any other wrong diagram makes the run incorrect.
func auditRecords(ctx context.Context, in *inputs, recs []record) audit {
	// The warm pass's queries are referenced too: a wrong diagram may be
	// one of theirs.
	seen := map[int32]bool{}
	var want []int32
	note := func(q int32) {
		if !seen[q] {
			seen[q] = true
			want = append(want, q)
		}
	}
	for _, q := range in.warm {
		note(q)
	}
	for _, r := range recs {
		note(r.q)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	refs := references(ctx, in, want)
	patternOf := make(map[uint64]uint64, len(refs)) // diagram hash → pattern hash
	a := audit{attempted: len(recs), statuses: map[string]int{}}
	for _, r := range refs {
		if r.hash != 0 {
			patternOf[r.hash] = r.pattern
		}
		a.statuses[r.status]++
	}
	for i := range recs {
		r := &recs[i]
		if r.kind != kindTransport {
			a.completed++
		}
		r.bad = true
		if r.kind != kindOK {
			a.failed++
			continue
		}
		rf := refs[r.q]
		if rf.hash == 0 {
			a.failed++
			continue
		}
		if r.hash == rf.hash {
			r.bad = false
			continue
		}
		a.wrong++
		if r.hit || r.router != 0 {
			a.wrongHit++
		}
		if p, ok := patternOf[r.hash]; ok && p != 0 && p == rf.pattern {
			a.explained++
		} else {
			a.unexplained++
		}
	}
	return a
}

// window is the length of the slices the end-to-end metrics are read
// over. Each metric is the median of its per-window values, so a brief
// stall of the shared host moves one window, not the run's figure.
const window = time.Second

// mark is the CPU used up to a window boundary.
type mark struct {
	at  time.Duration
	cpu time.Duration
}

// windowed is the per-window median of the end-to-end figures.
type windowed struct {
	goodPerSec, p50MS, p99MS, cpuMSPerReq float64
	windows, samples                      int
}

// windowStats splits the run at the marks (the first window starts at
// 0) and takes the median of each figure over the complete windows. A run
// shorter than two windows is read as one window.
func windowStats(recs []record, marks []mark, elapsed, cpuTotal time.Duration) windowed {
	bounds := []mark{{}}
	for _, m := range marks {
		if m.at <= elapsed {
			bounds = append(bounds, m)
		}
	}
	if len(bounds) < 3 {
		bounds = []mark{{}, {at: elapsed, cpu: cpuTotal}}
	}
	n := len(bounds) - 1
	lat := make([][]float64, n)
	good := make([]int, n)
	var w windowed
	for _, r := range recs {
		at := time.Duration(float64(r.doneMS) * 1e6)
		i := sort.Search(n, func(i int) bool { return bounds[i+1].at > at })
		if i == n {
			continue // after the last complete window
		}
		if r.kind != kindTransport {
			lat[i] = append(lat[i], float64(r.latUS)/1e3)
			w.samples++
		}
		if !r.bad {
			good[i]++
		}
	}
	var rps, p50, p99, cpu []float64
	for i := 0; i < n; i++ {
		if len(lat[i]) == 0 {
			continue
		}
		span := (bounds[i+1].at - bounds[i].at).Seconds()
		sort.Float64s(lat[i])
		rps = append(rps, float64(good[i])/span)
		p50 = append(p50, quantile(lat[i], 0.50))
		p99 = append(p99, quantile(lat[i], 0.99))
		cpu = append(cpu, float64((bounds[i+1].cpu-bounds[i].cpu).Microseconds())/1e3/float64(len(lat[i])))
	}
	w.windows = len(rps)
	w.goodPerSec, w.p50MS, w.p99MS, w.cpuMSPerReq = median(rps), median(p50), median(p99), median(cpu)
	return w
}

// quantile reads the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
