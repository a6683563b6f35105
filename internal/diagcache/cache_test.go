package diagcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mkEntry builds an entry whose three formats are rendered before
// insertion, so its accounted size includes them.
func mkEntry(status, payload string) *Entry {
	e := NewEntry(func(_ context.Context, f Format) (string, error) {
		return string(f) + ":" + payload, nil
	})
	e.Interpretation = "reading of " + payload
	e.ReadingOrder = []int{0}
	e.Tables = 1
	e.VerifyStatus = status
	for _, f := range []Format{FormatDOT, FormatSVG, FormatText} {
		if _, err := e.Format(context.Background(), f); err != nil {
			panic(err)
		}
	}
	return e
}

// mustFormat reads a format that cannot fail.
func mustFormat(t *testing.T, e *Entry, f Format) string {
	t.Helper()
	out, err := e.Format(context.Background(), f)
	if err != nil {
		t.Fatalf("Format(%s): %v", f, err)
	}
	return out
}

func TestCacheableStatus(t *testing.T) {
	cases := []struct {
		status, degraded string
		want             bool
	}{
		{"verified", "", true},
		{"off", "", true},
		{"verified", "simplified", false}, // degraded results never cache
		{"off", "trc", false},
		{"skipped", "", false},
		{"mismatch", "", false},
		{"ambiguous", "", false},
		{"budget_exhausted", "", false},
		{"timeout", "", false},
		{"error", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		if got := CacheableStatus(c.status, c.degraded); got != c.want {
			t.Errorf("CacheableStatus(%q, %q) = %v, want %v", c.status, c.degraded, got, c.want)
		}
	}
}

func TestPutAndLookups(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	e := mkEntry("verified", "p1")
	if !c.Put("pat1", "exact1", e) {
		t.Fatal("Put rejected a verified entry")
	}
	if e.PatternKey != "pat1" || e.PatternHash == "" {
		t.Fatalf("Put did not stamp pattern identity: %+v", e)
	}

	got, ok := c.GetExact("exact1", true)
	if !ok || got != e {
		t.Fatalf("GetExact = %v, %v; want the inserted entry", got, ok)
	}
	got, ok = c.GetPattern("pat1", true)
	if !ok || got != e {
		t.Fatalf("GetPattern = %v, %v; want the inserted entry", got, ok)
	}
	if _, ok := c.GetExact("never-seen", false); ok {
		t.Fatal("GetExact hit an unknown key")
	}

	// Uncacheable statuses are rejected at the single insertion point.
	for _, status := range []string{"skipped", "mismatch", "timeout", ""} {
		if c.Put("patX", "exactX", mkEntry(status, "x")) {
			t.Errorf("Put accepted status %q", status)
		}
	}
	if _, ok := c.GetPattern("patX", false); ok {
		t.Fatal("rejected entry is somehow resident")
	}
}

func TestWantVerifiedAcceptance(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	c.Put("pat", "exact", mkEntry("off", "unproven"))

	if _, ok := c.GetPattern("pat", true); ok {
		t.Fatal("a wantVerified lookup accepted an unverified entry")
	}
	if _, ok := c.GetExact("exact", true); ok {
		t.Fatal("a wantVerified exact lookup accepted an unverified entry")
	}
	if _, ok := c.GetPattern("pat", false); !ok {
		t.Fatal("a verify-off lookup rejected an 'off' entry")
	}

	// A verified build replaces the unverified entry (counted as a
	// replace-eviction), and then serves both kinds of lookup.
	ver := mkEntry("verified", "proven")
	if !c.Put("pat", "exact2", ver) {
		t.Fatal("verified Put rejected")
	}
	if e, ok := c.GetPattern("pat", true); !ok || e != ver {
		t.Fatal("verified entry did not replace the unverified one")
	}
	// The old entry's alias carries over to the replacement.
	if e, ok := c.GetExact("exact", true); !ok || e != ver {
		t.Fatal("replacement lost the prior exact-text alias")
	}
	if n := int64(c.reg.Value(MetricEvictions, "cause", EvictReplace)); n != 1 {
		t.Fatalf("replace evictions = %d, want 1", n)
	}

	// An unverified build must never downgrade a verified entry…
	if c.Put("pat", "exact3", mkEntry("off", "weaker")) {
		t.Fatal("an 'off' entry downgraded a verified one")
	}
	if e, ok := c.GetPattern("pat", true); !ok || e != ver {
		t.Fatal("verified entry lost after downgrade attempt")
	}
	// …but the new spelling still becomes an alias of the stronger entry.
	if e, ok := c.GetExact("exact3", true); !ok || e != ver {
		t.Fatal("downgrade attempt did not alias the verified entry")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1})
	c.Put("p1", "e1", mkEntry("verified", "1"))
	c.Put("p2", "e2", mkEntry("verified", "2"))
	if _, ok := c.GetPattern("p1", true); !ok { // touch p1: p2 becomes LRU
		t.Fatal("p1 missing before eviction")
	}
	c.Put("p3", "e3", mkEntry("verified", "3"))

	if _, ok := c.GetPattern("p2", true); ok {
		t.Fatal("LRU entry p2 survived over-capacity insert")
	}
	if _, ok := c.GetPattern("p1", true); !ok {
		t.Fatal("recently used p1 was evicted")
	}
	if _, ok := c.GetPattern("p3", true); !ok {
		t.Fatal("fresh p3 missing")
	}
	// The evicted entry's alias is unlinked, not left dangling.
	if _, ok := c.GetExact("e2", true); ok {
		t.Fatal("alias of evicted entry still resolves")
	}
	if n := int64(c.reg.Value(MetricEvictions, "cause", EvictLRU)); n != 1 {
		t.Fatalf("lru evictions = %d, want 1", n)
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries gauge = %d, want 2", st.Entries)
	}
}

func TestBytesBound(t *testing.T) {
	big := mkEntry("verified", string(make([]byte, 4096)))
	c := New(Config{MaxEntries: 1024, MaxBytes: 2 * big.size(), Shards: 1})
	c.Put("p1", "", mkEntry("verified", string(make([]byte, 4096))))
	c.Put("p2", "", mkEntry("verified", string(make([]byte, 4096))))
	c.Put("p3", "", mkEntry("verified", string(make([]byte, 4096))))
	if got := c.Stats().Entries; got > 2 {
		t.Fatalf("bytes bound did not evict: %d entries resident", got)
	}
	if c.Stats().Bytes > c.cfg.MaxBytes {
		t.Fatalf("resident bytes %d exceed bound %d", c.Stats().Bytes, c.cfg.MaxBytes)
	}

	// A single entry larger than the bound still resides (the bound
	// never evicts the only entry), keeping the cache useful rather than
	// thrashing on every insert.
	tiny := New(Config{MaxEntries: 16, MaxBytes: 16, Shards: 1})
	tiny.Put("huge", "", mkEntry("verified", string(make([]byte, 1024))))
	if _, ok := tiny.GetPattern("huge", true); !ok {
		t.Fatal("oversized single entry was evicted to an empty cache")
	}
}

func TestAliasCap(t *testing.T) {
	c := New(Config{MaxEntries: 8, MaxAliasesPerEntry: 2})
	c.Put("pat", "a1", mkEntry("verified", "x"))
	c.addAlias("pat", "a2")
	c.addAlias("pat", "a3") // over the cap: not indexed

	if _, ok := c.GetExact("a1", true); !ok {
		t.Fatal("alias a1 missing")
	}
	if _, ok := c.GetExact("a2", true); !ok {
		t.Fatal("alias a2 missing")
	}
	if _, ok := c.GetExact("a3", true); ok {
		t.Fatal("alias a3 indexed beyond the cap")
	}
	// The pattern itself still hits; capped texts just pay the probe.
	if _, ok := c.GetPattern("pat", true); !ok {
		t.Fatal("pattern lookup lost")
	}
}

func TestInvalidateAndBindConfig(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	c.Put("p1", "e1", mkEntry("verified", "1"))
	c.Put("p2", "e2", mkEntry("verified", "2"))

	if c.BindConfig("fp-a") {
		t.Fatal("first bind invalidated")
	}
	if c.BindConfig("fp-a") {
		t.Fatal("same-fingerprint rebind invalidated")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d before invalidation, want 2", st.Entries)
	}

	if !c.BindConfig("fp-b") {
		t.Fatal("fingerprint change did not invalidate")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after invalidate = %+v, want empty", st)
	}
	if _, ok := c.GetExact("e1", true); ok {
		t.Fatal("alias survived invalidation")
	}
	if _, ok := c.GetPattern("p1", true); ok {
		t.Fatal("entry survived invalidation")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Evictions != 2 {
		t.Fatalf("invalidations=%d evictions=%d, want 1 and 2", st.Invalidations, st.Evictions)
	}
}

// getOrBuild is the test harness shorthand: fixed pattern key, verified
// build of payload.
func getOrBuild(c *Cache, ctx context.Context, exact, pattern, payload string, builds *atomic.Int64) (*Entry, Outcome, error) {
	return c.GetOrBuild(ctx, exact, "degrade", true,
		func(context.Context) (string, error) { return pattern, nil },
		func(context.Context) (*Entry, error) {
			if builds != nil {
				builds.Add(1)
			}
			return mkEntry("verified", payload), nil
		})
}

func TestGetOrBuildOutcomes(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	ctx := context.Background()
	var builds atomic.Int64

	e1, out, err := getOrBuild(c, ctx, "exact-a", "pat", "v", &builds)
	if err != nil || out != OutcomeMiss || e1 == nil {
		t.Fatalf("first call: %v, %v, %v; want miss", e1, out, err)
	}
	e2, out, _ := getOrBuild(c, ctx, "exact-a", "pat", "v", &builds)
	if out != OutcomeHit || e2 != e1 {
		t.Fatalf("repeat exact text: outcome %v, want hit with the same entry", out)
	}
	// A different spelling of the same pattern: probe runs, pattern hits.
	e3, out, _ := getOrBuild(c, ctx, "exact-b", "pat", "v2", &builds)
	if out != OutcomeHitPattern || e3 != e1 {
		t.Fatalf("isomorphic text: outcome %v, want hit_pattern with the shared entry", out)
	}
	// And that spelling is now an alias: next time it's an exact hit.
	_, out, _ = getOrBuild(c, ctx, "exact-b", "pat", "v2", &builds)
	if out != OutcomeHit {
		t.Fatalf("alias learning failed: outcome %v, want hit", out)
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want exactly 1", builds.Load())
	}

	// Unkeyable pattern → uncacheable, caller serves itself.
	_, out, err = c.GetOrBuild(ctx, "exact-c", "degrade", true,
		func(context.Context) (string, error) { return "", nil },
		func(context.Context) (*Entry, error) { t.Fatal("build ran for unkeyable pattern"); return nil, nil })
	if err != nil || out != OutcomeUncacheable {
		t.Fatalf("unkeyable: %v, %v; want uncacheable, nil", out, err)
	}

	// Probe error → uncacheable with the error surfaced.
	probeErr := errors.New("parse exploded")
	_, out, err = c.GetOrBuild(ctx, "exact-d", "degrade", true,
		func(context.Context) (string, error) { return "", probeErr },
		func(context.Context) (*Entry, error) { t.Fatal("build ran after probe error"); return nil, nil })
	if !errors.Is(err, probeErr) || out != OutcomeUncacheable {
		t.Fatalf("probe error: %v, %v", out, err)
	}

	// Uncacheable build (nil, nil) → nothing inserted.
	_, out, err = c.GetOrBuild(ctx, "exact-e", "degrade", true,
		func(context.Context) (string, error) { return "pat-degraded", nil },
		func(context.Context) (*Entry, error) { return nil, nil })
	if err != nil || out != OutcomeUncacheable {
		t.Fatalf("uncacheable build: %v, %v", out, err)
	}
	if _, ok := c.GetPattern("pat-degraded", false); ok {
		t.Fatal("uncacheable build inserted an entry")
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	const followers = 8
	var builds atomic.Int64
	release := make(chan struct{})

	// The leader's build blocks until every follower is accounted for in
	// the singleflight-wait counter, making hit_flight deterministic.
	build := func(context.Context) (*Entry, error) {
		builds.Add(1)
		<-release
		return mkEntry("verified", "shared"), nil
	}
	probe := func(context.Context) (string, error) { return "pat", nil }

	type res struct {
		e   *Entry
		out Outcome
		err error
	}
	results := make(chan res, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, out, err := c.GetOrBuild(context.Background(), "", "degrade", true, probe, build)
			results <- res{e, out, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.cSFWaits.Value() < followers {
		if time.Now().After(deadline) {
			t.Fatal("followers never queued behind the leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	var miss, flight int
	var shared *Entry
	for r := range results {
		if r.err != nil {
			t.Fatalf("unexpected error: %v", r.err)
		}
		if shared == nil {
			shared = r.e
		}
		if r.e != shared {
			t.Fatal("callers received different entries")
		}
		switch r.out {
		case OutcomeMiss:
			miss++
		case OutcomeHitFlight:
			flight++
		default:
			t.Fatalf("unexpected outcome %v", r.out)
		}
	}
	if miss != 1 || flight != followers {
		t.Fatalf("miss=%d flight=%d, want 1 and %d", miss, flight, followers)
	}
	if builds.Load() != 1 || c.cBuilds.Value() != 1 {
		t.Fatalf("builds = %d (metric %d), want exactly 1", builds.Load(), c.cBuilds.Value())
	}
}

func TestFlightClassPartitioning(t *testing.T) {
	// A strict leader's failure must not be replayed onto a degrade
	// follower: the two modes fly separately.
	c := New(Config{MaxEntries: 8})
	strictEntered := make(chan struct{})
	strictRelease := make(chan struct{})
	strictDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), "", "strict", true,
			func(context.Context) (string, error) { return "pat", nil },
			func(context.Context) (*Entry, error) {
				close(strictEntered)
				<-strictRelease
				return nil, errors.New("strict verification failed")
			})
		strictDone <- err
	}()
	<-strictEntered

	e, out, err := getOrBuild(c, context.Background(), "", "pat", "ok", nil)
	if err != nil || e == nil || out != OutcomeMiss {
		t.Fatalf("degrade caller was coupled to the strict flight: %v, %v, %v", e, out, err)
	}
	close(strictRelease)
	if err := <-strictDone; err == nil {
		t.Fatal("strict leader's error was lost")
	}
}

func TestFollowerOutlivesDeadLeader(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered := make(chan struct{})

	go func() {
		_, _, _ = c.GetOrBuild(leaderCtx, "", "degrade", true,
			func(context.Context) (string, error) { return "pat", nil },
			func(ctx context.Context) (*Entry, error) {
				close(entered)
				<-ctx.Done() // die mid-build
				return nil, ctx.Err()
			})
	}()
	<-entered
	followerDone := make(chan struct{})
	var (
		e   *Entry
		out Outcome
		err error
	)
	go func() {
		defer close(followerDone)
		e, out, err = getOrBuild(c, context.Background(), "", "pat", "rebuilt", nil)
	}()
	// Give the follower a moment to queue behind the doomed leader, then
	// kill the leader; the follower must take over, not inherit the
	// cancellation.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed after leader death")
	}
	if err != nil || e == nil {
		t.Fatalf("follower inherited the dead leader's fate: %v, %v", out, err)
	}
}

func TestStatsAndPatternHash(t *testing.T) {
	c := New(Config{MaxEntries: 4})
	ctx := context.Background()
	getOrBuild(c, ctx, "e1", "p1", "1", nil) // miss
	getOrBuild(c, ctx, "e1", "p1", "1", nil) // hit
	getOrBuild(c, ctx, "e2", "p1", "1", nil) // hit_pattern
	c.NoteBypass()

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Builds != 1 {
		t.Fatalf("stats = %+v; want hits=2 misses=1 builds=1", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("occupancy = %+v", st)
	}
	if n := int64(c.reg.Value(MetricRequests, "outcome", string(OutcomeBypass))); n != 1 {
		t.Fatalf("bypass count = %d, want 1", n)
	}

	if PatternHash("a") == PatternHash("b") {
		t.Fatal("distinct keys share a hash (fnv collision on trivial input)")
	}
	if PatternHash("a") != PatternHash("a") {
		t.Fatal("PatternHash is unstable")
	}
}

func TestConcurrentChurn(t *testing.T) {
	// Tiny capacity, many patterns, many goroutines: exercises the
	// eviction/alias/insert interleavings under the race detector. The
	// assertion is absence of deadlock and torn state; byte-identity per
	// pattern is checked at the end.
	c := New(Config{MaxEntries: 2, Shards: 1, MaxBytes: -1})
	const patterns, workers, rounds = 6, 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := fmt.Sprintf("pat%d", (w+i)%patterns)
				e, _, err := getOrBuild(c, context.Background(), "exact-"+p, p, p, nil)
				if err != nil {
					t.Errorf("churn error: %v", err)
					return
				}
				if e == nil {
					continue
				}
				if out, err := e.Format(context.Background(), FormatSVG); err != nil || out != "svg:"+p {
					t.Errorf("pattern %s served foreign bytes %q (%v)", p, out, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 2 {
		t.Fatalf("capacity bound violated: %d entries", st.Entries)
	}
}

// countingEntry builds a verified entry whose renderer counts calls per
// format and renders size bytes for svg; fail makes the next render of
// a format fail once.
func countingEntry(size int) (*Entry, map[Format]*atomic.Int64, map[Format]*atomic.Bool) {
	calls := map[Format]*atomic.Int64{FormatDOT: {}, FormatSVG: {}, FormatText: {}}
	fail := map[Format]*atomic.Bool{FormatDOT: {}, FormatSVG: {}, FormatText: {}}
	e := NewEntry(func(_ context.Context, f Format) (string, error) {
		calls[f].Add(1)
		if fail[f].Swap(false) {
			return "", errors.New("render failed")
		}
		if f == FormatSVG {
			return string(make([]byte, size)), nil
		}
		return string(f), nil
	})
	e.VerifyStatus = "verified"
	return e, calls, fail
}

func TestLazyFormatRendersOnceAndIsCharged(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	e, calls, _ := countingEntry(1000)
	mustFormat(t, e, FormatDOT) // the build's own format, before Put
	c.Put("pat", "exact", e)
	before := c.Stats().Bytes

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := e.Format(context.Background(), FormatSVG); err != nil || len(out) != 1000 {
				t.Errorf("svg: %d bytes, %v", len(out), err)
			}
		}()
	}
	wg.Wait()
	if n := calls[FormatSVG].Load(); n < 1 || n > 8 {
		t.Fatalf("svg rendered %d times", n)
	}
	mustFormat(t, e, FormatSVG)
	n := calls[FormatSVG].Load()
	mustFormat(t, e, FormatSVG)
	if calls[FormatSVG].Load() != n {
		t.Fatal("a memoized format rendered again")
	}
	if calls[FormatDOT].Load() != 1 {
		t.Fatalf("dot rendered %d times, want once at build", calls[FormatDOT].Load())
	}
	if grew := c.Stats().Bytes - before; grew != 1000 {
		t.Fatalf("memo charged %d bytes, want 1000 (charged once, however many racers)", grew)
	}
	if _, err := e.Format(context.Background(), Format("png")); err == nil {
		t.Fatal("an unknown format rendered")
	}
}

func TestLazyFormatFailureNotMemoized(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	e, calls, fail := countingEntry(100)
	c.Put("pat", "exact", e)
	before := c.Stats().Bytes
	fail[FormatSVG].Store(true)
	if _, err := e.Format(context.Background(), FormatSVG); err == nil {
		t.Fatal("failing render returned no error")
	}
	if c.Stats().Bytes != before {
		t.Fatal("a failed render was charged")
	}
	if out := mustFormat(t, e, FormatSVG); len(out) != 100 || calls[FormatSVG].Load() != 2 {
		t.Fatalf("the retry after a failure did not render afresh (%d calls)", calls[FormatSVG].Load())
	}
	if c.Stats().Bytes != before+100 {
		t.Fatal("the successful retry was not charged")
	}
}

func TestLazyFormatChargeEvictsUnderByteBound(t *testing.T) {
	c := New(Config{MaxEntries: 8, Shards: 1, MaxBytes: 2048})
	old, _, _ := countingEntry(1500)
	mustFormat(t, old, FormatSVG) // resident with its 1500 bytes charged
	c.Put("old", "e-old", old)
	hot, _, _ := countingEntry(1500)
	c.Put("hot", "e-hot", hot)
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d before any memo, want 2", st.Entries)
	}
	// Rendering the hot entry's SVG pushes the shard past its byte
	// bound: the least recently used entry goes, and the accounting
	// matches what is resident.
	mustFormat(t, hot, FormatSVG)
	if _, ok := c.GetPattern("old", true); ok {
		t.Fatal("the LRU entry survived a memo past the byte bound")
	}
	if got, ok := c.GetExact("e-hot", true); !ok || got != hot {
		t.Fatal("the entry being rendered was evicted")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != hot.size() || st.Evictions != 1 {
		t.Fatalf("stats after memo eviction = %+v, want 1 entry of %d bytes, 1 eviction", st, hot.size())
	}
	// An evicted entry still renders for a reader holding it, but charges
	// nothing.
	before := c.Stats().Bytes
	mustFormat(t, old, FormatText)
	if c.Stats().Bytes != before {
		t.Fatal("a non-resident entry's memo was charged")
	}
}

func TestExactOnlyKeyNeverShared(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	key := ExactOnlyKey("exact-text")
	e := mkEntry("verified", "x")
	c.Put(key, "exact-text", e)
	if e.PatternHash != "" {
		t.Fatalf("exact-only entry carries pattern hash %q", e.PatternHash)
	}
	if got, ok := c.GetExact("exact-text", true); !ok || got != e {
		t.Fatal("exact-only entry not found by its text")
	}
	if ExactOnlyKey("other-text") == key || !strings.HasPrefix(key, "\x00") {
		t.Fatal("exact-only keys are not disjoint from each other and from pattern keys")
	}
}
