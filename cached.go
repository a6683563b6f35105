package queryvis

import (
	"context"
	"errors"

	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// This file is the facade's cached entry point: FromSQLCachedContext
// memoizes verified results in a pattern-keyed cache (see
// internal/diagcache). The cache key is the canonical pattern
// fingerprint, so one verified build serves every isomorph of its query
// — the §1.1 equivalence the paper's repository use case rests on. A
// pattern too symmetric to fingerprint is cached under its exact text
// alone. An entry keeps the verified diagram and renders each format the
// first time it is asked for.
// Cacheability is strict: only verified (or verify-off) non-degraded
// results are ever inserted, and a request carrying an injected fault
// plan bypasses the cache entirely in both directions.

// DiagramCache re-exports the pattern-keyed diagram cache.
type DiagramCache = diagcache.Cache

// DiagramCacheConfig re-exports its configuration.
type DiagramCacheConfig = diagcache.Config

// CachedEntry is one immutable cached result: the diagram summary, the
// verify status the build earned, and its formats, read through
// CachedEntry.Format.
type CachedEntry = diagcache.Entry

// CacheFormat names one rendering of a cached entry: "dot", "svg" or
// "text".
type CacheFormat = diagcache.Format

// CacheOutcome classifies one cached lookup.
type CacheOutcome = diagcache.Outcome

// NewDiagramCache builds a pattern-keyed diagram cache.
func NewDiagramCache(cfg DiagramCacheConfig) *DiagramCache { return diagcache.New(cfg) }

// DefaultFingerprintPerms caps the canonical-labeling search when
// fingerprinting on the request path: 720 = 6! keeps the worst case
// around a millisecond while covering every paper query with room to
// spare. Diagrams too symmetric to key under the bound are cached under
// their exact text only (diagcache.ExactOnlyKey).
const DefaultFingerprintPerms = 720

// cacheExactKey is the exact-text lookup key: the full schema
// rendering (not just its name — two ad-hoc schemas may share one), the
// option flags that change the artifact, and the literal SQL.
func cacheExactKey(sql string, s *Schema, opts Options) string {
	flags := byte('0')
	if opts.Simplify {
		flags |= 1
	}
	if opts.KeepExistsBlocks {
		flags |= 2
	}
	return s.String() + "\x00" + string(flags) + "\x00" + sql
}

// VerifyResultContext applies Options.Verify to an already-built
// Result: it proves the diagram by inverse recovery and, depending on
// the mode, returns it verified, degrades down the ladder, or fails
// with a *VerifyError. It is the second half of FromSQLContext for
// callers that already ran the forward pipeline (the cached path's
// probe build) and must not pay for it twice. The Result is mutated in
// place; with VerifyOff it is returned unchanged apart from its status.
func VerifyResultContext(ctx context.Context, res *Result, opts Options) (*Result, error) {
	if opts.Verify == VerifyOff {
		res.VerifyStatus = VerifyStatusOff
		return res, nil
	}
	if opts.Tracer != nil {
		ctx = telemetry.WithTracer(ctx, opts.Tracer)
	}
	sp := telemetry.StartSpan(ctx, StageVerify)
	defer sp.End()
	out, verr := verifyOrDegrade(ctx, res, nil, opts, sp)
	switch {
	case out != nil:
		if out.VerifyStatus != "" {
			sp.Annotate("status", out.VerifyStatus)
		}
		if out.Degraded != "" {
			sp.Annotate("rung", out.Degraded)
		}
	case verr != nil:
		var ve *VerifyError
		if errors.As(verr, &ve) {
			sp.Annotate("status", ve.Status)
		}
	}
	return out, verr
}

// BuildEntryContext turns a cacheable Result into a cache entry and
// renders format f, the one its caller asked for. The entry keeps only
// the diagram and the pipeline's limits; every other format renders on
// first use through the same DOTContext/SVGContext/TextContext calls an
// uncached result makes, so a lazy render fails exactly as the uncached
// path would. The caller is responsible for checking cacheability
// (diagcache.CacheableStatus) first; a failure to render f — output-size
// limits, cancellation — surfaces as an error and the result stays
// uncached.
func BuildEntryContext(ctx context.Context, res *Result, f CacheFormat) (*CachedEntry, error) {
	r := &Result{Diagram: res.Diagram, limits: res.limits}
	e := diagcache.NewEntry(func(ctx context.Context, f CacheFormat) (string, error) {
		switch f {
		case diagcache.FormatSVG:
			return r.SVGContext(ctx)
		case diagcache.FormatText:
			return r.TextContext(ctx)
		}
		return r.DOTContext(ctx, DOTOptions{})
	})
	e.Interpretation = res.Interpretation
	e.ReadingOrder = res.ReadingOrder()
	e.Tables = len(res.Diagram.Tables)
	e.Edges = len(res.Diagram.Edges)
	e.VerifyStatus = res.VerifyStatus
	if _, err := e.Format(ctx, f); err != nil {
		return nil, err
	}
	return e, nil
}

// FromSQLCached is FromSQLCachedContext without a deadline.
func FromSQLCached(sql string, s *Schema, opts Options) (*CachedEntry, *Result, CacheOutcome, error) {
	return FromSQLCachedContext(context.Background(), sql, s, opts)
}

// FromSQLCachedContext runs the pipeline through Options.Cache:
//
//   - on a cache hit the returned *CachedEntry serves the formats and the
//     Result is nil — no pipeline work ran beyond, at most, one
//     unverified probe build to discover the pattern key;
//   - on a cacheable miss this caller (or a concurrent singleflight
//     leader) runs the verified build once, renders DOT, and the fresh
//     entry is returned; SVG and text render on first use;
//   - when the outcome is uncacheable — a degraded or skipped result,
//     a DOT render that failed, a fault plan on the context — the *Result is
//     returned instead, exactly as FromSQLContext would have produced
//     it, and nothing is inserted.
//
// Exactly one of entry and result is non-nil on success.
func FromSQLCachedContext(ctx context.Context, sql string, s *Schema, opts Options) (*CachedEntry, *Result, CacheOutcome, error) {
	cache := opts.Cache
	if cache == nil {
		res, err := FromSQLContext(ctx, sql, s, opts)
		return nil, res, diagcache.OutcomeBypass, err
	}
	if faults.FromContext(ctx) != nil {
		// A fault-injected run may produce artifacts shaped by the plan;
		// neither serve nor insert cached bytes for it.
		cache.NoteBypass()
		res, err := FromSQLContext(ctx, sql, s, opts)
		return nil, res, diagcache.OutcomeBypass, err
	}

	wantVerified := opts.Verify != VerifyOff
	exactKey := cacheExactKey(sql, s, opts)
	var (
		probeRes    *Result
		probeFailed bool
	)
	probe := func(ctx context.Context) (string, error) {
		popts := opts
		popts.Verify = VerifyOff
		popts.Cache = nil
		r, err := FromSQLContext(ctx, sql, s, popts)
		if err != nil {
			probeFailed = true
			return "", err
		}
		probeRes = r
		key, ok := PatternFingerprintBounded(r.Diagram, DefaultFingerprintPerms)
		if !ok {
			return diagcache.ExactOnlyKey(exactKey), nil
		}
		return key, nil
	}
	build := func(ctx context.Context) (*CachedEntry, error) {
		r, err := VerifyResultContext(ctx, probeRes, opts)
		if err != nil {
			return nil, err
		}
		probeRes = r
		if !diagcache.CacheableStatus(r.VerifyStatus, r.Degraded) {
			return nil, nil
		}
		e, rerr := BuildEntryContext(ctx, r, diagcache.FormatDOT)
		if rerr != nil {
			return nil, nil // serve the result uncached; rendering is bounded
		}
		return e, nil
	}

	entry, outcome, err := cache.GetOrBuild(ctx, exactKey,
		opts.Verify.String(), wantVerified, probe, build)
	if err != nil {
		if probeFailed && opts.Verify == VerifyDegrade {
			// The unverified probe fails where degrade mode would walk the
			// ladder; rerun the full pipeline so a non-user fault still
			// serves the highest reachable rung (uncached, by definition).
			res, derr := FromSQLContext(ctx, sql, s, opts)
			return nil, res, outcome, derr
		}
		return nil, nil, outcome, err
	}
	if entry != nil {
		return entry, nil, outcome, nil
	}
	// Uncacheable: serve this caller's own result. The probe may not
	// have run (exact hit raced an eviction) or may belong to a follower
	// whose leader's build was uncacheable — verify our own copy.
	if probeRes == nil {
		res, err := FromSQLContext(ctx, sql, s, opts)
		return nil, res, outcome, err
	}
	if probeRes.VerifyStatus == VerifyStatusOff && wantVerified {
		res, err := VerifyResultContext(ctx, probeRes, opts)
		return nil, res, outcome, err
	}
	return nil, probeRes, outcome, nil
}
