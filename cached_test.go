package queryvis_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/quarantine"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// renameAliases rewrites the Fig. 1 alias names L1..L6 to a fresh set,
// producing SQL that is syntactically distinct but pattern-isomorphic —
// the §1.1 equivalence the cache keys on.
func renameAliases(sql, tag string) string {
	for i := 6; i >= 1; i-- { // longest first so L1 never clobbers L1x
		sql = strings.ReplaceAll(sql,
			fmt.Sprintf("L%d", i), fmt.Sprintf("Z%d%s", i, tag))
	}
	return sql
}

func newCachedOpts(c *queryvis.DiagramCache, verify queryvis.VerifyMode) queryvis.Options {
	return queryvis.NewOptions(
		queryvis.WithVerify(verify),
		queryvis.WithCache(c),
	)
}

func TestFromSQLCachedColdWarm(t *testing.T) {
	beers, _ := schema.ByName("beers")
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	opts := newCachedOpts(c, queryvis.VerifyDegrade)

	cold, res, out, err := queryvis.FromSQLCached(corpus.Fig1UniqueSet, beers, opts)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if out != diagcache.OutcomeMiss || cold == nil || res != nil {
		t.Fatalf("cold: outcome %v entry %v result %v; want a pure miss", out, cold != nil, res != nil)
	}
	if cold.VerifyStatus != queryvis.VerifyStatusVerified {
		t.Fatalf("cold entry status %q, want verified", cold.VerifyStatus)
	}
	if cold.Interpretation == "" {
		t.Fatal("cold entry is missing its interpretation")
	}
	// Every format is reachable through the accessor: DOT was rendered by
	// the build, SVG and text render on first use.
	for _, f := range []queryvis.CacheFormat{"dot", "svg", "text"} {
		if out, err := cold.Format(context.Background(), f); err != nil || out == "" {
			t.Fatalf("cold entry format %s: %q, %v", f, out, err)
		}
	}

	warm, _, out, err := queryvis.FromSQLCached(corpus.Fig1UniqueSet, beers, opts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if out != diagcache.OutcomeHit {
		t.Fatalf("warm outcome %v, want exact hit", out)
	}
	if warm != cold {
		t.Fatal("warm hit returned a different entry object")
	}

	// A pattern-isomorphic spelling: the probe discovers the cached
	// pattern and serves the representative's bytes.
	iso := renameAliases(corpus.Fig1UniqueSet, "a")
	if iso == corpus.Fig1UniqueSet {
		t.Fatal("renamer produced the identical text")
	}
	ent, _, out, err := queryvis.FromSQLCached(iso, beers, opts)
	if err != nil {
		t.Fatalf("isomorph: %v", err)
	}
	if out != diagcache.OutcomeHitPattern || ent != cold {
		t.Fatalf("isomorph outcome %v (shared entry: %v), want hit_pattern on the shared entry", out, ent == cold)
	}
	// The spelling is an alias now: second time costs no probe.
	_, _, out, _ = queryvis.FromSQLCached(iso, beers, opts)
	if out != diagcache.OutcomeHit {
		t.Fatalf("isomorph repeat outcome %v, want hit", out)
	}

	if st := c.Stats(); st.Builds != 1 {
		t.Fatalf("builds = %d for four requests of one pattern, want 1", st.Builds)
	}
}

func TestFromSQLCachedFaultBypass(t *testing.T) {
	beers, _ := schema.ByName("beers")
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	opts := newCachedOpts(c, queryvis.VerifyDegrade)

	// Find a seed whose plan injects at least one pipeline fault, so the
	// bypass below is exercised against a genuinely faulty run.
	ctx := faults.WithPlan(context.Background(), faults.NewPlan(1))
	_, res, out, _ := queryvis.FromSQLCachedContext(ctx, corpus.Fig3QSome, beers, opts)
	if out != diagcache.OutcomeBypass {
		t.Fatalf("fault-plan request outcome %v, want bypass", out)
	}
	if st := c.Stats(); st.Entries != 0 || st.Builds != 0 {
		t.Fatalf("fault-plan request touched the cache: %+v", st)
	}
	_ = res // may be nil (fault fired) or a degraded result; both are fine uncached

	// The same query without a fault plan must rebuild, not hit.
	_, _, out, err := queryvis.FromSQLCached(corpus.Fig3QSome, beers, opts)
	if err != nil {
		t.Fatalf("clean rebuild: %v", err)
	}
	if out.Hit() {
		t.Fatalf("clean request after a fault-plan run hit the cache (outcome %v)", out)
	}
}

func TestFromSQLCachedVerifiedReplacesUnverified(t *testing.T) {
	beers, _ := schema.ByName("beers")
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})

	// A verify-off request caches an unproven entry.
	offEnt, _, out, err := queryvis.FromSQLCached(corpus.Fig3QOnly, beers, newCachedOpts(c, queryvis.VerifyOff))
	if err != nil || out != diagcache.OutcomeMiss {
		t.Fatalf("off cold: %v, %v", out, err)
	}
	if offEnt.VerifyStatus != queryvis.VerifyStatusOff {
		t.Fatalf("off entry status %q", offEnt.VerifyStatus)
	}

	// A degrade request must not accept it: it runs the verified build
	// and replaces the entry in place.
	verEnt, _, out, err := queryvis.FromSQLCached(corpus.Fig3QOnly, beers, newCachedOpts(c, queryvis.VerifyDegrade))
	if err != nil {
		t.Fatalf("degrade: %v", err)
	}
	if out.Hit() {
		t.Fatalf("degrade request hit an unverified entry (outcome %v)", out)
	}
	if verEnt.VerifyStatus != queryvis.VerifyStatusVerified {
		t.Fatalf("degrade entry status %q", verEnt.VerifyStatus)
	}
	// Both classes of request now hit the verified entry.
	for _, mode := range []queryvis.VerifyMode{queryvis.VerifyOff, queryvis.VerifyDegrade} {
		e, _, out, err := queryvis.FromSQLCached(corpus.Fig3QOnly, beers, newCachedOpts(c, mode))
		if err != nil || !out.Hit() || e != verEnt {
			t.Fatalf("mode %v after replacement: outcome %v err %v shared %v", mode, out, err, e == verEnt)
		}
	}
}

// assertColdWarmIdentity runs sql twice against a fresh cache and checks
// the cache-correctness contract: a warm hit must be byte-identical to
// the cold build across every format and carry the same verify status;
// an uncacheable cold run must not turn into a warm hit.
func assertColdWarmIdentity(t *testing.T, sql string, s *queryvis.Schema, mode queryvis.VerifyMode) {
	t.Helper()
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	opts := newCachedOpts(c, mode)
	opts.VerifyBudget = 20_000
	lim := queryvis.DefaultLimits()
	opts.Limits = &lim

	run := func(label string) (*queryvis.CachedEntry, *queryvis.Result, queryvis.CacheOutcome) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ent, res, out, err := queryvis.FromSQLCachedContext(ctx, sql, s, opts)
		if err != nil {
			return nil, nil, out // rejections are fine; identity is vacuous
		}
		_ = label
		return ent, res, out
	}

	coldEnt, coldRes, coldOut := run("cold")
	warmEnt, _, warmOut := run("warm")

	switch {
	case coldEnt != nil:
		// Cacheable: warm must hit and serve identical bytes.
		if !warmOut.Hit() || warmEnt == nil {
			t.Fatalf("cold miss did not become a warm hit (cold %v, warm %v) on %q", coldOut, warmOut, sql)
		}
		if warmEnt.VerifyStatus != coldEnt.VerifyStatus ||
			warmEnt.Interpretation != coldEnt.Interpretation {
			t.Fatalf("warm hit is not byte-identical to the cold build on %q", sql)
		}
		// Every format the warm hit serves is the uncached render's.
		for _, f := range []queryvis.CacheFormat{"dot", "svg", "text"} {
			got, err := warmEnt.Format(context.Background(), f)
			if err != nil {
				continue // an output-limit overflow fails for both paths alike
			}
			if want, ok := uncachedFormat(sql, s, opts, f); ok && got != want {
				t.Fatalf("warm %s differs from the uncached render on %q", f, sql)
			}
		}
		if mode != queryvis.VerifyOff && warmEnt.VerifyStatus != queryvis.VerifyStatusVerified {
			t.Fatalf("warm hit carries status %q under mode %v on %q", warmEnt.VerifyStatus, mode, sql)
		}
	case coldRes != nil:
		// Uncacheable (degraded, unkeyable): the warm run must not hit.
		if warmOut.Hit() {
			t.Fatalf("uncacheable cold run (%v, status %q, rung %q) became a warm hit on %q",
				coldOut, coldRes.VerifyStatus, coldRes.Degraded, sql)
		}
	}
}

// uncachedFormat renders format f of sql through the cache-less facade
// under the same options; ok is false when that run does not produce a
// diagram in f (an error, or a degraded rung).
func uncachedFormat(sql string, s *queryvis.Schema, opts queryvis.Options, f queryvis.CacheFormat) (string, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	opts.Cache = nil
	res, err := queryvis.FromSQLContext(ctx, sql, s, opts)
	if err != nil || res.Degraded != "" {
		return "", false
	}
	var out string
	switch f {
	case "svg":
		out, err = res.SVGContext(ctx)
	case "text":
		out, err = res.TextContext(ctx)
	default:
		out, err = res.DOTContext(ctx, queryvis.DOTOptions{})
	}
	return out, err == nil
}

// FuzzCachedColdWarm extends the FuzzVerified battery to the cache
// layer: every input that builds is run cold then warm, and the cache
// must either serve byte-identical proven bytes or stay out of the way.
// Quarantine-corpus entries — previously captured verification failures,
// exactly the inputs that must never be served from cache — seed the
// fuzz alongside the paper queries.
func FuzzCachedColdWarm(f *testing.F) {
	seeds := []string{
		corpus.Fig1UniqueSet,
		corpus.Fig3QSome,
		corpus.Fig3QOnly,
		"SELECT S.sname FROM Sailor S WHERE S.sid NOT IN (SELECT R.sid FROM Reserves R)",
		"SELECT C.Country, COUNT(*) FROM Customer C GROUP BY C.Country",
		"SELECT T.a FROM T WHERE T.a + 1 <= T.b - 2 AND NOT EXISTS(SELECT * FROM U WHERE U.x = T.a AND NOT EXISTS(SELECT * FROM V WHERE V.y = U.x))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	if entries, err := quarantine.Load("testdata/quarantine"); err == nil {
		for _, e := range entries {
			f.Add(e.SQL)
		}
	}
	beers, _ := schema.ByName("beers")
	f.Fuzz(func(t *testing.T, sql string) {
		assertColdWarmIdentity(t, sql, beers, queryvis.VerifyDegrade)
		assertColdWarmIdentity(t, sql, beers, queryvis.VerifyOff)
	})
}

// TestCachedPropertyGenerated is the property-test hookup: queries from
// the oracle's generator (the same generator the differential oracle
// trusts) all satisfy the cold/warm identity contract, across schemas
// and verify modes.
func TestCachedPropertyGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is not short")
	}
	cfg := oracle.DefaultConfig()
	for _, name := range []string{"beers", "sailors", "chinook"} {
		sch, ok := schema.ByName(name)
		if !ok {
			t.Fatalf("schema %q missing", name)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40; i++ {
			q := oracle.Generate(rng, sch, cfg)
			sql := sqlparse.Format(q)
			assertColdWarmIdentity(t, sql, sch, queryvis.VerifyDegrade)
		}
	}
}
