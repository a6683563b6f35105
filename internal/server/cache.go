package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	queryvis "repro"
	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/schema"
)

// This file is the server's cached diagram path: /v1/diagram and every
// /v1/diagrams:batch item funnel through serveDiagram, which consults
// the pattern-keyed cache (internal/diagcache) when one is configured
// and otherwise behaves exactly like the historical handler. The
// correctness rules are the cache's — only verified (or verify-off)
// non-degraded results are inserted — plus two server-level ones:
// fault-seeded requests bypass the cache in both directions, and the
// breaker/quarantine/verify-metric integrations fire for real builds
// only, never for hits.

// Response headers the cached path adds. X-QueryVis-Cache is "hit" or
// "miss" whenever a cache is configured and the request was eligible
// (absent when caching is off or the request bypassed it).
// X-QueryVis-Pattern carries the pattern-key hash when one is known, so
// the parent of a worker pool can route isomorphic requests to the same
// worker (see affinity.go).
const (
	headerCache   = "X-Queryvis-Cache"
	headerPattern = "X-Queryvis-Pattern"
)

// configFingerprint identifies the configuration an entry was proven
// under: the per-query limits, the verification budget, and the schema
// catalog. BindConfig flushes the cache when any of it changes.
func (s *Server) configFingerprint() string {
	names := append([]string(nil), schema.BuiltinNames()...)
	sort.Strings(names)
	return fmt.Sprintf("limits=%+v unlimited=%t budget=%d schemas=%v",
		s.cfg.Limits, s.cfg.Unlimited, s.cfg.VerifyBudget, names)
}

// cacheKey is the exact-text lookup key. Server schemas are built-in,
// so the name identifies the catalog entry; simplify is the only option
// that changes the artifact (format does not: an entry serves every
// format, and verify mode is handled by the cache's acceptance check,
// not the key).
func (s *Server) cacheKey(req *diagramRequest) string {
	flag := byte('0')
	if req.Simplify {
		flag = '1'
	}
	return req.Schema + "\x00" + string(flag) + "\x00" + req.SQL
}

// served is one fully determined diagram response: the JSON body plus
// the out-of-band headers the handler sets. Batch items reuse it with
// the headers folded into the item instead.
type served struct {
	resp         diagramResponse
	verifyStatus string // X-QueryVis-Verify-Status (pre-hide value)
	degraded     string // X-QueryVis-Degraded
	cache        string // X-QueryVis-Cache: "hit", "miss", or "" (ineligible)
	pattern      string // X-QueryVis-Pattern: pattern-key hash when known
}

func (sv *served) writeHeaders(w http.ResponseWriter) {
	if sv.verifyStatus != "" && sv.verifyStatus != queryvis.VerifyStatusOff {
		w.Header().Set("X-QueryVis-Verify-Status", sv.verifyStatus)
	}
	if sv.degraded != "" {
		w.Header().Set("X-QueryVis-Degraded", sv.degraded)
	}
	if sv.cache != "" {
		w.Header().Set(headerCache, sv.cache)
	}
	if sv.pattern != "" {
		w.Header().Set(headerPattern, sv.pattern)
	}
}

// serveDiagram resolves one validated diagram request into a response,
// through the cache when possible:
//
//   - cache off → the historical runVerified + render path;
//   - fault plan on the context → same, with the cache bypassed in both
//     directions (an injected fault must neither be masked by cached
//     bytes nor poison them);
//   - otherwise GetOrBuild: exact-text hit, pattern hit, singleflight
//     wait, or a verified build this caller leads, which renders only
//     the requested format. A pattern too symmetric to fingerprint is
//     cached under its exact text alone (diagcache.ExactOnlyKey), without
//     an X-Queryvis-Pattern header. Uncacheable outcomes (degraded,
//     breaker-skipped, a failed render) serve this caller's own result
//     and insert nothing.
func (s *Server) serveDiagram(ctx context.Context, req *diagramRequest, sch *schema.Schema, started time.Time) (*served, error) {
	if s.cache == nil {
		return s.serveUncached(ctx, req, sch, started, "")
	}
	if faults.FromContext(ctx) != nil {
		s.cache.NoteBypass()
		return s.serveUncached(ctx, req, sch, started, "")
	}
	requested, err := s.verifyMode(req)
	if err != nil {
		return nil, err
	}
	wantVerified := requested != queryvis.VerifyOff
	exactKey := s.cacheKey(req)

	var (
		probeRes    *queryvis.Result
		probeFailed bool
		built       *queryvis.Result
	)
	probe := func(ctx context.Context) (string, error) {
		opts := s.options(req)
		opts.Verify = queryvis.VerifyOff
		r, err := queryvis.FromSQLContext(ctx, req.SQL, sch, opts)
		if err != nil {
			probeFailed = true
			return "", err
		}
		probeRes = r
		key, ok := queryvis.PatternFingerprintBounded(r.Diagram, maxFingerprintPerms)
		if !ok {
			return diagcache.ExactOnlyKey(exactKey), nil
		}
		return key, nil
	}
	build := func(ctx context.Context) (*diagcache.Entry, error) {
		r, err := s.verifyProbed(ctx, req, probeRes, requested)
		if err != nil {
			return nil, err
		}
		built, probeRes = r, r
		if !diagcache.CacheableStatus(r.VerifyStatus, r.Degraded) {
			return nil, nil
		}
		e, rerr := queryvis.BuildEntryContext(ctx, r, diagcache.Format(req.Format))
		if rerr != nil {
			return nil, nil // serve uncached; rendering failures degrade below
		}
		return e, nil
	}

	entry, outcome, err := s.cache.GetOrBuild(ctx, exactKey,
		requested.String(), wantVerified, probe, build)
	if err != nil {
		if probeFailed && requested == queryvis.VerifyDegrade {
			// The unverified probe fails where degrade mode would walk the
			// ladder; rerun the full pipeline so a non-user fault still serves
			// the highest reachable rung (uncached, by definition).
			return s.serveUncached(ctx, req, sch, started, "miss")
		}
		return nil, err
	}
	hdr := "miss"
	if outcome.Hit() {
		hdr = "hit"
	}
	if entry != nil {
		sv, err := s.respondEntry(ctx, req, entry, requested, started, hdr)
		var le *queryvis.LimitError
		if err != nil && requested == queryvis.VerifyDegrade &&
			!errors.As(err, &le) && ctx.Err() == nil {
			// A renderer fault on a lazy format: the uncached path would
			// walk the ladder to the TRC rung, which only a live result
			// can do.
			return s.serveUncached(ctx, req, sch, started, hdr)
		}
		return sv, err
	}

	// Uncacheable: serve this caller's own result, verifying it first if
	// only the unverified probe ran (a follower whose leader's build was
	// uncacheable never entered build itself).
	var res *queryvis.Result
	switch {
	case built != nil:
		res = built
	case probeRes == nil:
		return s.serveUncached(ctx, req, sch, started, "miss")
	case probeRes.VerifyStatus == queryvis.VerifyStatusOff && wantVerified:
		if res, err = s.verifyProbed(ctx, req, probeRes, requested); err != nil {
			return nil, err
		}
	default:
		res = probeRes
	}
	return s.renderResult(ctx, req, res, requested, started, "miss")
}

// serveUncached is the historical path: full pipeline with breaker,
// quarantine, and verify metrics, then render.
func (s *Server) serveUncached(ctx context.Context, req *diagramRequest, sch *schema.Schema, started time.Time, hdr string) (*served, error) {
	res, mode, err := s.runVerified(ctx, req, sch)
	if err != nil {
		return nil, err
	}
	return s.renderResult(ctx, req, res, mode, started, hdr)
}

// verifyProbed is runVerified's second half for the cached path: the
// forward pipeline already ran (the probe build), so only verification
// remains. Breaker consultation and feedback, verdict counters, and
// quarantine behave identically to the uncached path.
func (s *Server) verifyProbed(ctx context.Context, req *diagramRequest, res *queryvis.Result, requested queryvis.VerifyMode) (*queryvis.Result, error) {
	mode := requested
	skipped := false
	if mode == queryvis.VerifyDegrade && !s.breaker.allow() {
		mode = queryvis.VerifyOff
		skipped = true
	}
	opts := s.options(req)
	opts.Verify = mode
	opts.VerifyBudget = s.cfg.VerifyBudget

	out, err := queryvis.VerifyResultContext(ctx, res, opts)

	status := verifyOutcome(out, err)
	if mode != queryvis.VerifyOff && status != "" {
		s.breaker.record(status == queryvis.VerifyStatusBudget ||
			status == queryvis.VerifyStatusTimeout)
		s.recordVerifyOutcome(status)
	}
	s.maybeQuarantine(ctx, req, out, err, status)

	if err != nil {
		return nil, err
	}
	if skipped {
		out.VerifyStatus = queryvis.VerifyStatusSkipped
		out.VerifyDetail = "verification circuit breaker open"
		s.recordVerifyOutcome(queryvis.VerifyStatusSkipped)
	}
	return out, nil
}

// respondEntry shapes a cache entry into the response. The requested
// format is memoized unless this is its first request, which renders it
// from the entry's verified diagram; a failed render returns the error
// the uncached path's render returns.
func (s *Server) respondEntry(ctx context.Context, req *diagramRequest, e *diagcache.Entry, mode queryvis.VerifyMode, started time.Time, hdr string) (*served, error) {
	out, err := e.Format(ctx, diagcache.Format(req.Format))
	if err != nil {
		return nil, err
	}
	resp := diagramResponse{
		Format:         req.Format,
		Diagram:        out,
		Interpretation: e.Interpretation,
		ReadingOrder:   e.ReadingOrder,
		Tables:         e.Tables,
		Edges:          e.Edges,
		ElapsedMS:      time.Since(started).Milliseconds(),
		VerifyStatus:   e.VerifyStatus,
	}
	sv := &served{resp: resp, verifyStatus: e.VerifyStatus,
		cache: hdr, pattern: e.PatternHash}
	if mode == queryvis.VerifyOff || e.VerifyStatus == queryvis.VerifyStatusOff {
		// Keep the historical wire shape: a request that asked for no
		// verification reports none, even when the entry happens to carry a
		// proof.
		resp.VerifyStatus, sv.resp.VerifyStatus, sv.verifyStatus = "", "", ""
	}
	return sv, nil
}

// renderResult turns a live pipeline result into the response,
// including the degrade-mode render fallback to the TRC rung.
func (s *Server) renderResult(ctx context.Context, req *diagramRequest, res *queryvis.Result, mode queryvis.VerifyMode, started time.Time, hdr string) (*served, error) {
	format, out := req.Format, ""
	var err error
	if res.Degraded == queryvis.RungTRC {
		// The ladder bottomed out below diagrams: serve the calculus text.
		format, out = "trc", res.TRCText
	} else {
		switch format {
		case "svg":
			out, err = res.SVGContext(ctx)
		case "text":
			out, err = res.TextContext(ctx)
		default:
			out, err = res.DOTContext(ctx, queryvis.DOTOptions{})
		}
		if err != nil {
			// In degrade mode a broken renderer drops the response to the TRC
			// rung rather than erroring; limit and context errors stay errors
			// (a policy bound or a dead client, not a degradable fault).
			var le *queryvis.LimitError
			if mode != queryvis.VerifyDegrade ||
				errors.As(err, &le) || ctx.Err() != nil || res.TRC == nil {
				return nil, err
			}
			format, out = "trc", res.TRC.String()
			res.Degraded = queryvis.RungTRC
			res.Diagram = nil
		}
	}

	resp := diagramResponse{
		Format:         format,
		Diagram:        out,
		Interpretation: res.Interpretation,
		ElapsedMS:      time.Since(started).Milliseconds(),
		VerifyStatus:   res.VerifyStatus,
		Degraded:       res.Degraded,
	}
	if res.VerifyStatus == queryvis.VerifyStatusOff {
		resp.VerifyStatus = "" // keep the historical wire shape for verify=off
	}
	if res.Diagram != nil {
		resp.ReadingOrder = res.ReadingOrder()
		resp.Tables = len(res.Diagram.Tables)
		resp.Edges = len(res.Diagram.Edges)
	}
	return &served{resp: resp, verifyStatus: res.VerifyStatus,
		degraded: res.Degraded, cache: hdr}, nil
}
