// Package diagcache memoizes fully rendered diagram results keyed by
// the canonical pattern key of internal/core: queries with the same
// logical pattern yield the same diagram (§1.1 of the paper), so one
// verified build can serve every isomorph of its query — across table
// renamings, constant changes, and even schemas, exactly the
// equivalence the pattern catalog already relies on.
//
// The cache is a bounded, sharded LRU holding immutable entries: the
// diagram's summary fields, the interpretation, the verification status
// the build earned, and a renderer over the verified diagram. A build
// renders only the format its caller asked for; every other format
// (DOT, SVG, text) is rendered the first time it is asked for and then
// memoized, its bytes charged to the shard's byte bound. Correctness
// rules are load bearing and enforced at the single insertion point:
//
//   - only results whose verify status is "verified" (or "off", when the
//     caller never asked for proof) are cacheable;
//   - degraded, failed, skipped, or quarantined results are never
//     inserted — callers gate on CacheableStatus;
//   - anything built under an injected fault plan must bypass insertion
//     entirely (the server enforces this; the cache cannot see context
//     fault plans by design);
//   - entries are dropped wholesale by Invalidate, which BindConfig
//     triggers automatically when a cache is re-bound under a different
//     limits/schema-catalog fingerprint.
//
// Two lookup levels avoid rebuilding for known traffic. The exact-text
// alias index maps a request's literal (schema, flags, SQL) key to the
// pattern entry in O(1) — repeated dashboard queries never touch the
// pipeline. A novel text costs one unverified probe build to learn its
// pattern key; if the pattern is cached the probe is all it pays, and
// the alias index learns the new spelling. Concurrent misses on one
// pattern collapse via singleflight: one leader runs the verified
// build, everyone else waits for its entry. A query whose pattern is too
// symmetric to key can still be cached under ExactOnlyKey: a namespace of
// its own that only its exact text reaches.
package diagcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Metric families exported through the telemetry registry. Pass the
// server's registry via Config.Metrics so /v1/metrics and /v1/healthz
// read the same numbers.
const (
	// MetricRequests counts lookups by outcome (one per GetOrBuild call,
	// plus "bypass" for requests the caller routed around the cache).
	MetricRequests = "queryvis_cache_requests_total"
	// MetricEvictions counts dropped entries by cause.
	MetricEvictions = "queryvis_cache_evictions_total"
	// MetricInserts counts successful entry insertions.
	MetricInserts = "queryvis_cache_inserts_total"
	// MetricBuilds counts singleflight leader executions — the number of
	// verified pipeline runs the cache could not avoid.
	MetricBuilds = "queryvis_cache_builds_total"
	// MetricSFWaits counts followers that waited on another caller's
	// in-flight build instead of running their own.
	MetricSFWaits = "queryvis_cache_singleflight_waits_total"
	// MetricInvalidations counts wholesale invalidations.
	MetricInvalidations = "queryvis_cache_invalidations_total"
	// MetricEntries and MetricBytes gauge current occupancy.
	MetricEntries = "queryvis_cache_entries"
	MetricBytes   = "queryvis_cache_bytes"
)

// Outcome classifies one GetOrBuild call.
type Outcome string

const (
	// OutcomeHit: the exact-text alias index resolved the request without
	// any pipeline work.
	OutcomeHit Outcome = "hit"
	// OutcomeHitPattern: a probe build discovered a cached pattern; the
	// rendered entry was served and the text learned as an alias.
	OutcomeHitPattern Outcome = "hit_pattern"
	// OutcomeHitFlight: the caller waited on a concurrent leader's build
	// and was served its entry (singleflight collapse).
	OutcomeHitFlight Outcome = "hit_flight"
	// OutcomeMiss: this caller led a build and inserted the entry.
	OutcomeMiss Outcome = "miss"
	// OutcomeUncacheable: the build ran but produced nothing insertable
	// (degraded, skipped, unkeyable pattern); the caller serves its own
	// result directly.
	OutcomeUncacheable Outcome = "uncacheable"
	// OutcomeBypass: the caller never consulted the cache (fault plan
	// attached, cache disabled for the request). Counted via NoteBypass.
	OutcomeBypass Outcome = "bypass"
)

// Hit reports whether the outcome served bytes from the cache.
func (o Outcome) Hit() bool {
	return o == OutcomeHit || o == OutcomeHitPattern || o == OutcomeHitFlight
}

var outcomes = []Outcome{
	OutcomeHit, OutcomeHitPattern, OutcomeHitFlight,
	OutcomeMiss, OutcomeUncacheable, OutcomeBypass,
}

// Eviction causes for MetricEvictions.
const (
	EvictLRU        = "lru"        // capacity pressure (entries or bytes)
	EvictReplace    = "replace"    // a verified entry superseded an "off" one
	EvictInvalidate = "invalidate" // Invalidate / BindConfig mismatch
)

var evictCauses = []string{EvictLRU, EvictReplace, EvictInvalidate}

// Format names one rendering of a cached diagram.
type Format string

// The formats an entry serves.
const (
	FormatDOT  Format = "dot"
	FormatSVG  Format = "svg"
	FormatText Format = "text"
)

// slot indexes a format's memo slot; -1 for an unknown format.
func (f Format) slot() int {
	switch f {
	case FormatDOT:
		return 0
	case FormatSVG:
		return 1
	case FormatText:
		return 2
	}
	return -1
}

// RenderFunc renders one format of an entry's diagram. It must be safe
// for concurrent use and deterministic: two renders of one format are
// interchangeable, so whichever finishes first is memoized.
type RenderFunc func(ctx context.Context, f Format) (string, error)

// Entry is one immutable cached result: everything the server needs to
// answer a diagram request in any format without rerunning the
// pipeline. Exported fields must never be mutated after Put; rendered
// formats are reached through Format.
type Entry struct {
	// PatternKey is the canonical pattern fingerprint the entry is keyed
	// on; PatternHash is its short fnv-64a hex form, used for response
	// headers and worker affinity. PatternHash is empty for an entry
	// keyed by ExactOnlyKey, which has no pattern to share.
	PatternKey  string
	PatternHash string
	// Interpretation is the natural-language reading.
	Interpretation string
	// ReadingOrder, Tables, and Edges mirror the diagram summary fields
	// of the wire response.
	ReadingOrder []int
	Tables       int
	Edges        int
	// VerifyStatus is the proof status the build earned: "verified", or
	// "off" when verification was never requested. No other status is
	// insertable.
	VerifyStatus string

	render RenderFunc
	// home is the cache the entry was inserted into; nil until Put.
	home atomic.Pointer[Cache]
	// mu guards the memo slots. Lock order: the owning shard's lock, then
	// mu.
	mu   sync.Mutex
	out  [3]string
	have [3]bool
}

// NewEntry returns an entry whose formats render through render on
// first use. The caller fills in the summary fields before Put.
func NewEntry(render RenderFunc) *Entry { return &Entry{render: render} }

// Format returns the entry's rendering in f. The first request for a
// format runs the renderer under ctx; a successful render is memoized
// and, while the entry is resident, its bytes are charged to the cache's
// byte bound. A failed or canceled render is returned as is and not
// memoized, so the next request renders again.
func (e *Entry) Format(ctx context.Context, f Format) (string, error) {
	i := f.slot()
	if i < 0 {
		return "", fmt.Errorf("diagcache: unknown format %q", f)
	}
	e.mu.Lock()
	out, ok := e.out[i], e.have[i]
	e.mu.Unlock()
	if ok {
		return out, nil
	}
	out, err := e.render(ctx, f)
	if err != nil {
		return "", err
	}
	return e.memo(i, out), nil
}

// memo stores a rendered format once and charges its bytes to the
// owning shard, under the shard lock, so an entry's accounted size
// changes only where eviction reads it. A concurrent render that lost
// the race gets the winner's (identical) bytes.
func (e *Entry) memo(i int, out string) string {
	c := e.home.Load()
	var sh *shard
	if c != nil {
		sh = c.shards[shardIndex(e.PatternKey, c.cfg.Shards)]
		sh.mu.Lock()
	}
	e.mu.Lock()
	if e.have[i] {
		out = e.out[i]
		e.mu.Unlock()
		if sh != nil {
			sh.mu.Unlock()
		}
		return out
	}
	e.out[i], e.have[i] = out, true
	e.mu.Unlock()
	if sh == nil {
		return out
	}
	var evicted []*node
	if el, ok := sh.byKey[e.PatternKey]; ok && el.Value.(*node).ent == e {
		nd := el.Value.(*node)
		nd.size += int64(len(out))
		sh.bytes += int64(len(out))
		c.bytes.Add(int64(len(out)))
		evicted = c.evictLocked(sh)
	}
	sh.mu.Unlock()
	c.dropEvicted(evicted)
	return out
}

// size is the entry's accounted footprint in bytes: the formats
// rendered so far plus the fixed fields.
func (e *Entry) size() int64 {
	e.mu.Lock()
	n := len(e.out[0]) + len(e.out[1]) + len(e.out[2])
	e.mu.Unlock()
	return int64(n + len(e.Interpretation) + len(e.PatternKey) + len(e.PatternHash) +
		8*len(e.ReadingOrder) + 128) // struct + bookkeeping overhead
}

// exactOnlyPrefix starts every ExactOnlyKey. Canonical pattern keys
// begin with '[' (core's table signatures), so the namespaces are
// disjoint.
const exactOnlyPrefix = "\x00exact\x00"

// ExactOnlyKey is the pattern-key stand-in for a result whose pattern is
// too symmetric to fingerprint under the request path's bound: the
// result is cached under its exact text alone. No other text's probe
// produces this key, so the entry is never shared with another spelling,
// and it carries no PatternHash.
func ExactOnlyKey(exactKey string) string { return exactOnlyPrefix + exactKey }

// CacheableStatus reports whether a result with the given verify status
// and degradation rung may be inserted. This is the single codified
// cacheability rule: verified results always qualify, unverified ones
// only when verification was off, and degraded artifacts never do.
func CacheableStatus(verifyStatus, degraded string) bool {
	if degraded != "" {
		return false
	}
	return verifyStatus == "verified" || verifyStatus == "off"
}

// Config tunes a Cache. Zero fields take the documented defaults.
type Config struct {
	// MaxEntries bounds the number of cached patterns (default 4096;
	// negative means 1).
	MaxEntries int
	// MaxBytes bounds the accounted bytes of rendered output (default
	// 64 MiB; negative means unbounded).
	MaxBytes int64
	// Shards is the number of independent LRU shards (default 16,
	// rounded up to a power of two). More shards means less lock
	// contention and a slightly coarser global LRU.
	Shards int
	// MaxAliasesPerEntry caps how many exact-text spellings one pattern
	// entry indexes (default 8). Texts beyond the cap still hit at the
	// pattern level; they just pay the probe build each time.
	MaxAliasesPerEntry int
	// Metrics receives the cache's counters and occupancy gauges; nil
	// creates a private registry.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxEntries == 0 {
		c.MaxEntries = 4096
	}
	if c.MaxEntries < 0 {
		c.MaxEntries = 1
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 64 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards++
	}
	if c.Shards > c.MaxEntries {
		// Pointless to run more shards than entries; per-shard capacity
		// must stay >= 1.
		c.Shards = 1
	}
	if c.MaxAliasesPerEntry <= 0 {
		c.MaxAliasesPerEntry = 8
	}
	return c
}

// Cache is the bounded, sharded, singleflighted pattern cache.
type Cache struct {
	cfg     Config
	shards  []*shard
	aliases []*aliasShard

	flightMu sync.Mutex
	flights  map[string]*flight

	bindMu  sync.Mutex
	boundFP string

	entries atomic.Int64
	bytes   atomic.Int64

	reg           *telemetry.Registry
	cInserts      *telemetry.Counter
	cBuilds       *telemetry.Counter
	cSFWaits      *telemetry.Counter
	cInvalidation *telemetry.Counter
}

// shard is one LRU partition. Entries are keyed by pattern key; the
// list front is most recently used.
type shard struct {
	mu         sync.Mutex
	byKey      map[string]*list.Element
	lru        *list.List
	bytes      int64
	maxEntries int
	maxBytes   int64
}

// node is the shard-owned envelope around one Entry, tracking the
// exact-text aliases pointing at it so eviction can unlink them. size is
// the entry's bytes as charged to the shard; it changes only under the
// shard lock.
type node struct {
	key     string
	ent     *Entry
	aliases []string
	size    int64
}

// aliasShard maps exact-text keys to pattern keys.
type aliasShard struct {
	mu sync.Mutex
	m  map[string]string
}

// New builds a Cache.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Cache{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		aliases: make([]*aliasShard, cfg.Shards),
		flights: make(map[string]*flight),
		reg:     reg,
	}
	perEntries := (cfg.MaxEntries + cfg.Shards - 1) / cfg.Shards
	perBytes := cfg.MaxBytes
	if perBytes > 0 {
		perBytes = (cfg.MaxBytes + int64(cfg.Shards) - 1) / int64(cfg.Shards)
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			byKey:      make(map[string]*list.Element),
			lru:        list.New(),
			maxEntries: perEntries,
			maxBytes:   perBytes,
		}
		c.aliases[i] = &aliasShard{m: make(map[string]string)}
	}
	c.cInserts = reg.Counter(MetricInserts, "Diagram cache entries inserted.")
	c.cBuilds = reg.Counter(MetricBuilds, "Verified builds executed by singleflight leaders.")
	c.cSFWaits = reg.Counter(MetricSFWaits, "Callers that waited on a concurrent leader's build.")
	c.cInvalidation = reg.Counter(MetricInvalidations, "Wholesale cache invalidations.")
	for _, o := range outcomes {
		reg.Counter(MetricRequests, "Diagram cache lookups by outcome.", "outcome", string(o))
	}
	for _, cause := range evictCauses {
		reg.Counter(MetricEvictions, "Diagram cache evictions by cause.", "cause", cause)
	}
	reg.GaugeFunc(MetricEntries, "Diagram cache entries resident.",
		func() float64 { return float64(c.entries.Load()) })
	reg.GaugeFunc(MetricBytes, "Diagram cache accounted bytes resident.",
		func() float64 { return float64(c.bytes.Load()) })
	return c
}

// Registry exposes the metrics registry backing the cache.
func (c *Cache) Registry() *telemetry.Registry { return c.reg }

func (c *Cache) countOutcome(o Outcome) {
	c.reg.Counter(MetricRequests, "Diagram cache lookups by outcome.", "outcome", string(o)).Inc()
}

func (c *Cache) countEviction(cause string, n int) {
	if n > 0 {
		c.reg.Counter(MetricEvictions, "Diagram cache evictions by cause.", "cause", cause).Add(int64(n))
	}
}

// NoteBypass counts a request that was served without consulting the
// cache at all (fault plan attached, per-request opt-out).
func (c *Cache) NoteBypass() { c.countOutcome(OutcomeBypass) }

// PatternHash is the short fnv-64a hex form of a pattern key, the
// currency of the X-QueryVis-Pattern header and worker affinity.
func PatternHash(patternKey string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(patternKey))
	return strconv.FormatUint(h.Sum64(), 16)
}

func shardIndex(key string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32()) & (n - 1)
}

// acceptable reports whether an entry satisfies a lookup's proof
// requirement: a caller that wants verification only accepts proven
// entries; a verify=off caller accepts anything (a verified entry is
// strictly stronger than what it asked for).
func acceptable(e *Entry, wantVerified bool) bool {
	return !wantVerified || e.VerifyStatus == "verified"
}

// GetExact resolves an exact-text key through the alias index. It
// counts nothing; GetOrBuild owns outcome accounting.
func (c *Cache) GetExact(exactKey string, wantVerified bool) (*Entry, bool) {
	as := c.aliases[shardIndex(exactKey, c.cfg.Shards)]
	as.mu.Lock()
	pk, ok := as.m[exactKey]
	as.mu.Unlock()
	if !ok {
		return nil, false
	}
	e, ok := c.GetPattern(pk, wantVerified)
	if !ok {
		// Only unlink the alias when the entry is truly gone (evicted); an
		// entry that is resident but not yet proven keeps its aliases — a
		// verified build will replace it in place and inherit them.
		if _, resident := c.GetPattern(pk, false); !resident {
			as.mu.Lock()
			if cur, still := as.m[exactKey]; still && cur == pk {
				delete(as.m, exactKey)
			}
			as.mu.Unlock()
		}
		return nil, false
	}
	return e, true
}

// GetPattern resolves a pattern key directly, touching LRU recency.
func (c *Cache) GetPattern(patternKey string, wantVerified bool) (*Entry, bool) {
	sh := c.shards[shardIndex(patternKey, c.cfg.Shards)]
	sh.mu.Lock()
	el, ok := sh.byKey[patternKey]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	nd := el.Value.(*node)
	if !acceptable(nd.ent, wantVerified) {
		sh.mu.Unlock()
		return nil, false
	}
	sh.lru.MoveToFront(el)
	e := nd.ent
	sh.mu.Unlock()
	return e, true
}

// Put inserts an entry under its pattern key, records exactKey as an
// alias, and evicts LRU tails until the shard is back under its bounds.
// A verified entry replaces an unverified one for the same pattern; an
// unverified entry never downgrades a verified one (its alias is still
// learned). Entries failing CacheableStatus, and entries already
// inserted once, are rejected outright.
func (c *Cache) Put(patternKey, exactKey string, e *Entry) bool {
	if e == nil || !CacheableStatus(e.VerifyStatus, "") {
		return false
	}
	if e.home.Load() != nil {
		return false // an entry lives in one cache, under one key
	}
	e.PatternKey = patternKey
	e.PatternHash = ""
	if !strings.HasPrefix(patternKey, exactOnlyPrefix) {
		e.PatternHash = PatternHash(patternKey)
	}

	sh := c.shards[shardIndex(patternKey, c.cfg.Shards)]
	replaced := 0
	sh.mu.Lock()
	size := e.size()
	if el, ok := sh.byKey[patternKey]; ok {
		old := el.Value.(*node)
		if old.ent.VerifyStatus == "verified" && e.VerifyStatus != "verified" {
			// Keep the stronger entry; the caller's text still aliases it.
			sh.mu.Unlock()
			c.addAlias(patternKey, exactKey)
			return false
		}
		sh.bytes += size - old.size
		c.bytes.Add(size - old.size)
		el.Value = &node{key: patternKey, ent: e, aliases: old.aliases, size: size}
		sh.lru.MoveToFront(el)
		replaced = 1
	} else {
		sh.byKey[patternKey] = sh.lru.PushFront(&node{key: patternKey, ent: e, size: size})
		sh.bytes += size
		c.bytes.Add(size)
		c.entries.Add(1)
	}
	e.home.Store(c)
	evicted := c.evictLocked(sh)
	sh.mu.Unlock()

	c.cInserts.Inc()
	c.countEviction(EvictReplace, replaced)
	c.dropEvicted(evicted)
	c.addAlias(patternKey, exactKey)
	return true
}

// evictLocked drops LRU tails until sh is back under its bounds and
// returns them for dropEvicted. The caller holds sh.mu.
func (c *Cache) evictLocked(sh *shard) []*node {
	var evicted []*node
	for (sh.maxEntries > 0 && sh.lru.Len() > sh.maxEntries) ||
		(sh.maxBytes > 0 && sh.bytes > sh.maxBytes && sh.lru.Len() > 1) {
		tail := sh.lru.Back()
		if tail == nil {
			break
		}
		nd := tail.Value.(*node)
		sh.lru.Remove(tail)
		delete(sh.byKey, nd.key)
		sh.bytes -= nd.size
		c.bytes.Add(-nd.size)
		c.entries.Add(-1)
		evicted = append(evicted, nd)
	}
	return evicted
}

// dropEvicted counts evictions and unlinks their aliases, outside any
// shard lock.
func (c *Cache) dropEvicted(evicted []*node) {
	c.countEviction(EvictLRU, len(evicted))
	for _, nd := range evicted {
		c.dropAliases(nd)
	}
}

// addAlias records exactKey → patternKey, bounded per entry. Lock order
// is strictly entry shard then alias shard, never nested.
func (c *Cache) addAlias(patternKey, exactKey string) {
	if exactKey == "" {
		return
	}
	sh := c.shards[shardIndex(patternKey, c.cfg.Shards)]
	ok := false
	sh.mu.Lock()
	if el, live := sh.byKey[patternKey]; live {
		nd := el.Value.(*node)
		known := false
		for _, a := range nd.aliases {
			if a == exactKey {
				known, ok = true, true
				break
			}
		}
		if !known && len(nd.aliases) < c.cfg.MaxAliasesPerEntry {
			nd.aliases = append(nd.aliases, exactKey)
			ok = true
		}
	}
	sh.mu.Unlock()
	if !ok {
		return
	}
	as := c.aliases[shardIndex(exactKey, c.cfg.Shards)]
	as.mu.Lock()
	as.m[exactKey] = patternKey
	as.mu.Unlock()
}

// dropAliases unlinks an evicted node's exact-text aliases. Best
// effort: an alias re-pointed at a fresh entry for the same pattern is
// left alone.
func (c *Cache) dropAliases(nd *node) {
	for _, a := range nd.aliases {
		as := c.aliases[shardIndex(a, c.cfg.Shards)]
		as.mu.Lock()
		if pk, ok := as.m[a]; ok && pk == nd.key {
			delete(as.m, a)
		}
		as.mu.Unlock()
	}
}

// Invalidate drops every entry and alias. Builds in flight finish and
// may insert afterward; callers that need a hard barrier must also
// drain their own traffic.
func (c *Cache) Invalidate() {
	dropped := 0
	for i, sh := range c.shards {
		sh.mu.Lock()
		n := sh.lru.Len()
		sh.byKey = make(map[string]*list.Element)
		sh.lru.Init()
		c.bytes.Add(-sh.bytes)
		sh.bytes = 0
		sh.mu.Unlock()
		c.entries.Add(int64(-n))
		dropped += n
		as := c.aliases[i]
		as.mu.Lock()
		as.m = make(map[string]string)
		as.mu.Unlock()
	}
	c.countEviction(EvictInvalidate, dropped)
	c.cInvalidation.Inc()
}

// BindConfig ties the cache to a configuration fingerprint (limits,
// verify budget, schema catalog). Re-binding under a different
// fingerprint invalidates everything: entries built under other bounds
// or another catalog must not survive into this one. Returns whether an
// invalidation fired.
func (c *Cache) BindConfig(fp string) bool {
	c.bindMu.Lock()
	prev := c.boundFP
	c.boundFP = fp
	c.bindMu.Unlock()
	if prev != "" && prev != fp {
		c.Invalidate()
		return true
	}
	return false
}

// Stats is the healthz snapshot. Every number reads the same storage
// the metrics exposition reports.
type Stats struct {
	Entries           int64 `json:"entries"`
	Bytes             int64 `json:"bytes"`
	MaxEntries        int   `json:"max_entries"`
	MaxBytes          int64 `json:"max_bytes"`
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Evictions         int64 `json:"evictions"`
	Builds            int64 `json:"builds"`
	SingleflightWaits int64 `json:"singleflight_waits"`
	Invalidations     int64 `json:"invalidations"`
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	st := Stats{
		Entries:           c.entries.Load(),
		Bytes:             c.bytes.Load(),
		MaxEntries:        c.cfg.MaxEntries,
		MaxBytes:          c.cfg.MaxBytes,
		Builds:            c.cBuilds.Value(),
		SingleflightWaits: c.cSFWaits.Value(),
		Invalidations:     c.cInvalidation.Value(),
	}
	for _, o := range outcomes {
		n := int64(c.reg.Value(MetricRequests, "outcome", string(o)))
		if o.Hit() {
			st.Hits += n
		} else if o == OutcomeMiss {
			st.Misses += n
		}
	}
	for _, cause := range evictCauses {
		st.Evictions += int64(c.reg.Value(MetricEvictions, "cause", cause))
	}
	return st
}

// flight is one in-progress singleflight build.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// doFlight runs build once per key among concurrent callers. The
// second return reports whether this caller led the build. Followers
// abandon the wait when their own context dies; the leader's result is
// still recorded for everyone else.
func (c *Cache) doFlight(ctx context.Context, key string, build func() (*Entry, error)) (*Entry, bool, error) {
	c.flightMu.Lock()
	if f, ok := c.flights[key]; ok {
		c.flightMu.Unlock()
		c.cSFWaits.Inc()
		select {
		case <-f.done:
			return f.entry, false, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.flightMu.Unlock()

	c.cBuilds.Inc()
	defer func() {
		// The build closures run with panic boundaries below them, but a
		// stuck flight would wedge every future request for the pattern —
		// release it even on a panic escaping the caller's stack.
		c.flightMu.Lock()
		delete(c.flights, key)
		c.flightMu.Unlock()
		close(f.done)
	}()
	f.entry, f.err = build()
	return f.entry, true, f.err
}

// maxLeaderRetries bounds how many dead leaders a follower outlives
// before it gives up and serves itself uncached.
const maxLeaderRetries = 3

// GetOrBuild is the full lookup-probe-build orchestration:
//
//  1. exact-text lookup (no pipeline work on a hit);
//  2. probe — the caller builds its diagram unverified and returns the
//     pattern key ("" means the pattern is too symmetric to key and the
//     result is uncacheable);
//  3. pattern lookup (the probe is all a known pattern costs);
//  4. singleflight build — one leader runs the caller-supplied verified
//     build; a build returning (nil, nil) marks the result uncacheable.
//
// flightClass partitions singleflight by verification mode so a strict
// caller's hard failure is never replayed onto a degrade caller.
// Returns (nil, OutcomeUncacheable, nil) when the caller must serve its
// own result — either its build ran and was uncacheable, or it followed
// an uncacheable leader.
func (c *Cache) GetOrBuild(
	ctx context.Context,
	exactKey, flightClass string,
	wantVerified bool,
	probe func(context.Context) (string, error),
	build func(context.Context) (*Entry, error),
) (*Entry, Outcome, error) {
	if e, ok := c.GetExact(exactKey, wantVerified); ok {
		c.countOutcome(OutcomeHit)
		return e, OutcomeHit, nil
	}
	patternKey, err := probe(ctx)
	if err != nil {
		c.countOutcome(OutcomeUncacheable)
		return nil, OutcomeUncacheable, err
	}
	if patternKey == "" {
		c.countOutcome(OutcomeUncacheable)
		return nil, OutcomeUncacheable, nil
	}
	for attempt := 0; attempt <= maxLeaderRetries; attempt++ {
		if e, ok := c.GetPattern(patternKey, wantVerified); ok {
			c.addAlias(patternKey, exactKey)
			c.countOutcome(OutcomeHitPattern)
			return e, OutcomeHitPattern, nil
		}
		e, led, err := c.doFlight(ctx, patternKey+"\x00"+flightClass, func() (*Entry, error) {
			ent, err := build(ctx)
			if err == nil && ent != nil {
				c.Put(patternKey, exactKey, ent)
			}
			return ent, err
		})
		switch {
		case err != nil:
			if !led && ctx.Err() == nil &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				// The leader's own context died mid-build; this follower is
				// alive and can lead the next round.
				continue
			}
			c.countOutcome(OutcomeUncacheable)
			return nil, OutcomeUncacheable, err
		case e == nil:
			// Uncacheable build. The leader has its own result in hand;
			// followers fall back to serving themselves.
			c.countOutcome(OutcomeUncacheable)
			return nil, OutcomeUncacheable, nil
		case led:
			c.addAlias(patternKey, exactKey)
			c.countOutcome(OutcomeMiss)
			return e, OutcomeMiss, nil
		default:
			c.addAlias(patternKey, exactKey)
			c.countOutcome(OutcomeHitFlight)
			return e, OutcomeHitFlight, nil
		}
	}
	c.countOutcome(OutcomeUncacheable)
	return nil, OutcomeUncacheable, nil
}
