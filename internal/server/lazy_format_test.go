package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/diagcache"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// formatReq is a diagram request body in one format.
func formatReq(sql, schemaName, format string) map[string]any {
	return map[string]any{"sql": sql, "schema": schemaName, "format": format}
}

// decodeError unmarshals an error response body.
func decodeError(t *testing.T, raw []byte) apiError {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decode error body: %v\n%s", err, raw)
	}
	return eb.Error
}

// uncachedRender renders sql in format through the cache-less facade,
// the bytes every cached response must reproduce.
func uncachedRender(t *testing.T, sql string, sch *schema.Schema, lim queryvis.Limits, verify queryvis.VerifyMode, format string) string {
	t.Helper()
	ctx := context.Background()
	res, err := queryvis.FromSQLContext(ctx, sql, sch, queryvis.Options{Limits: &lim, Verify: verify})
	if err != nil {
		t.Fatalf("uncached facade: %v", err)
	}
	var out string
	switch format {
	case "svg":
		out, err = res.SVGContext(ctx)
	case "text":
		out, err = res.TextContext(ctx)
	default:
		out, err = res.DOTContext(ctx, queryvis.DOTOptions{})
	}
	if err != nil {
		t.Fatalf("uncached %s render: %v", format, err)
	}
	return out
}

// TestCacheLazyFormats: a miss renders only the requested format. The
// first hit in another format renders it once from the cached diagram,
// charges its bytes to the cache, and later hits serve the memo; every
// body is the uncached facade's render.
func TestCacheLazyFormats(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := diagcache.New(diagcache.Config{MaxEntries: 16, Metrics: reg})
	ts := newTestServer(t, Config{Cache: c, DefaultVerify: queryvis.VerifyDegrade, Metrics: reg})
	url := ts.URL + "/v1/diagram"
	renders := func() float64 { return reg.Value(mStageSpans, "stage", queryvis.StageRender) }

	st, hdr, raw := postFull(t, ts.Client(), url, formatReq(corpus.Fig1UniqueSet, "beers", "dot"), nil)
	if st != http.StatusOK || hdr.Get(headerCache) != "miss" {
		t.Fatalf("dot miss: status %d cache %q\n%s", st, hdr.Get(headerCache), raw)
	}
	if renders() != 1 {
		t.Fatalf("a dot miss ran %v renders, want 1 (svg and text are lazy)", renders())
	}
	bytes := c.Stats().Bytes

	for _, format := range []string{"svg", "text"} {
		want := uncachedRender(t, corpus.Fig1UniqueSet, schema.Beers(), queryvis.DefaultLimits(), queryvis.VerifyDegrade, format)
		before := renders()
		for i := 0; i < 3; i++ {
			st, hdr, raw := postFull(t, ts.Client(), url, formatReq(corpus.Fig1UniqueSet, "beers", format), nil)
			if st != http.StatusOK || hdr.Get(headerCache) != "hit" {
				t.Fatalf("%s request %d: status %d cache %q\n%s", format, i, st, hdr.Get(headerCache), raw)
			}
			dr := decodeDiagram(t, raw)
			if dr.Format != format || dr.Diagram != want {
				t.Fatalf("%s hit %d does not match the uncached render", format, i)
			}
		}
		if got := renders() - before; got != 1 {
			t.Fatalf("three %s hits ran %v renders, want exactly 1", format, got)
		}
		if grew := c.Stats().Bytes - bytes; grew != int64(len(want)) {
			t.Fatalf("%s memo charged %d bytes, want %d", format, grew, len(want))
		}
		bytes = c.Stats().Bytes
	}
}

// TestCacheLazyFormatOverflowMatchesUncached: when the output limit
// admits the DOT rendering but not the SVG one, an SVG request that hits
// the DOT-built entry fails exactly as an uncached server fails it, and
// the failed render is not memoized.
func TestCacheLazyFormatOverflowMatchesUncached(t *testing.T) {
	dotLen := len(uncachedRender(t, corpus.Fig1UniqueSet, schema.Beers(), queryvis.Limits{}, queryvis.VerifyOff, "dot"))
	svgLen := len(uncachedRender(t, corpus.Fig1UniqueSet, schema.Beers(), queryvis.Limits{}, queryvis.VerifyOff, "svg"))
	if svgLen <= dotLen {
		t.Fatalf("test premise: svg (%d bytes) is not larger than dot (%d bytes)", svgLen, dotLen)
	}
	lim := queryvis.DefaultLimits()
	lim.MaxOutputBytes = dotLen
	for _, mode := range []queryvis.VerifyMode{queryvis.VerifyDegrade, queryvis.VerifyOff} {
		// One server per subtest: each test server checks for leaks when
		// it closes, and a second live server's connections would count.
		var wantSt int
		var wantRaw []byte
		t.Run(mode.String()+"/uncached", func(t *testing.T) {
			uncached := newTestServer(t, Config{Limits: lim, DefaultVerify: mode})
			wantSt, _, wantRaw = postFull(t, uncached.Client(), uncached.URL+"/v1/diagram", formatReq(corpus.Fig1UniqueSet, "beers", "svg"), nil)
			if wantSt == http.StatusOK {
				t.Fatal("uncached svg fit under the limit; test premise broken")
			}
		})
		t.Run(mode.String()+"/cached", func(t *testing.T) {
			c := diagcache.New(diagcache.Config{MaxEntries: 16})
			cached := newTestServer(t, Config{Cache: c, Limits: lim, DefaultVerify: mode})
			st, hdr, raw := postFull(t, cached.Client(), cached.URL+"/v1/diagram", formatReq(corpus.Fig1UniqueSet, "beers", "dot"), nil)
			if st != http.StatusOK || hdr.Get(headerCache) != "miss" {
				t.Fatalf("dot miss: status %d cache %q\n%s", st, hdr.Get(headerCache), raw)
			}
			bytes := c.Stats().Bytes
			for i := 0; i < 2; i++ {
				st, _, raw := postFull(t, cached.Client(), cached.URL+"/v1/diagram", formatReq(corpus.Fig1UniqueSet, "beers", "svg"), nil)
				if st != wantSt || !reflect.DeepEqual(decodeError(t, raw), decodeError(t, wantRaw)) {
					t.Fatalf("svg overflow %d: cached %d %s, uncached %d %s", i, st, raw, wantSt, wantRaw)
				}
			}
			if c.Stats().Bytes != bytes {
				t.Fatal("a failed render changed the cache's bytes")
			}
		})
	}
}

// TestCacheUnkeyableByExactText: QUAL5 joins thirteen tables, too
// symmetric to fingerprint under the request-path bound. Its verified
// result is cached under its exact text: the repeat is a hit, serves the
// uncached facade's bytes, and carries no pattern header.
func TestCacheUnkeyableByExactText(t *testing.T) {
	var qual5 string
	for _, q := range corpus.QualificationQuestions() {
		if q.ID == "QUAL5" {
			qual5 = q.SQL
		}
	}
	chinook := schema.Chinook()
	probe, err := queryvis.FromSQL(qual5, chinook, queryvis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := queryvis.PatternFingerprintBounded(probe.Diagram, maxFingerprintPerms); ok {
		t.Fatal("test premise: QUAL5 is keyable under the request-path bound")
	}

	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{CacheEntries: 16, DefaultVerify: queryvis.VerifyDegrade, Metrics: reg})
	want := uncachedRender(t, qual5, chinook, queryvis.DefaultLimits(), queryvis.VerifyDegrade, "dot")
	for i, wantCache := range []string{"miss", "hit", "hit"} {
		st, hdr, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram", formatReq(qual5, "chinook", "dot"), nil)
		if st != http.StatusOK || hdr.Get(headerCache) != wantCache {
			t.Fatalf("request %d: status %d cache %q, want %s\n%s", i, st, hdr.Get(headerCache), wantCache, raw)
		}
		if p := hdr.Get(headerPattern); p != "" {
			t.Fatalf("request %d carries pattern header %q for an unkeyable query", i, p)
		}
		if dr := decodeDiagram(t, raw); dr.Diagram != want || dr.VerifyStatus != queryvis.VerifyStatusVerified {
			t.Fatalf("request %d does not serve the uncached facade's verified bytes", i)
		}
	}
	if n := reg.Value(diagcache.MetricBuilds); n != 1 {
		t.Fatalf("builds = %v, want 1", n)
	}
}

// TestBuiltinSchemasSharedImmutable sends concurrent requests over all
// five built-in schemas — hits, misses and every format — and checks
// that the shared catalog is unchanged afterwards. Under -race it also
// shows no stage writes to a shared schema.
func TestBuiltinSchemasSharedImmutable(t *testing.T) {
	before := map[string]string{}
	for name, s := range builtinSchemas {
		before[name] = s.String()
	}
	queries := map[string]string{
		"beers":    corpus.Fig1UniqueSet,
		"chinook":  "SELECT A.Name FROM Artist A WHERE NOT EXISTS (SELECT * FROM Album AL WHERE AL.ArtistId = A.ArtistId)",
		"sailors":  "SELECT S.sname FROM Sailor S WHERE NOT EXISTS (SELECT * FROM Reserves R WHERE R.sid = S.sid)",
		"students": "SELECT S.sname FROM Student S, Takes T WHERE S.sid = T.sid",
		"actors":   "SELECT A.aname FROM Actor A WHERE NOT EXISTS (SELECT * FROM Casts C WHERE C.aid = A.aid)",
	}
	if len(queries) != len(schema.BuiltinNames()) {
		t.Fatalf("test covers %d schemas, the catalog has %d", len(queries), len(schema.BuiltinNames()))
	}
	ts := newTestServer(t, Config{CacheEntries: 64, DefaultVerify: queryvis.VerifyDegrade})
	var wg sync.WaitGroup
	for name, sql := range queries {
		for _, format := range []string{"dot", "svg", "text"} {
			wg.Add(1)
			go func(name, sql, format string) {
				defer wg.Done()
				body, _ := json.Marshal(formatReq(sql, name, format))
				for i := 0; i < 3; i++ {
					resp, err := ts.Client().Post(ts.URL+"/v1/diagram", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("%s/%s: %v", name, format, err)
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s/%s: status %d\n%s", name, format, resp.StatusCode, raw)
						return
					}
				}
			}(name, sql, format)
		}
	}
	wg.Wait()
	for name, s := range builtinSchemas {
		if s.String() != before[name] {
			t.Fatalf("schema %s changed while serving:\n%s\nwas\n%s", name, s.String(), before[name])
		}
	}
}
