// Fleet observability surface: the router's trace ring and metrics
// families, whole-fleet trace assembly across a real HTTP hop to a
// backend instance, and the /v1/fleet health aggregate.
package router_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/leak"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func TestFleetObservability(t *testing.T) {
	t.Cleanup(leak.Check(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)

	inst := httptest.NewServer(server.New(server.Config{CacheEntries: 64}))
	t.Cleanup(inst.Close)
	rt, err := router.New(router.Config{
		Backends:       []string{inst.URL},
		HealthInterval: 50 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// One proxied request with a caller-chosen request ID.
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/diagram",
		strings.NewReader(`{"sql":"`+strings.ReplaceAll(qSome, "\n", " ")+`","schema":"beers"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "fleet-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagram via router = %d, want 200", resp.StatusCode)
	}
	traceID := resp.Header.Get(telemetry.TraceIDHeader)
	if traceID == "" {
		t.Fatalf("proxied response missing %s", telemetry.TraceIDHeader)
	}

	// Prometheus golden: the router's trace families are live.
	mresp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	exposition := string(raw)
	for _, want := range []string{
		"queryvis_router_traces_total 1",
		"queryvis_router_trace_ring_entries 1",
		`queryvis_router_requests_total{outcome="proxied"} 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("router exposition missing %q", want)
		}
	}

	// Whole-fleet trace assembly: the router's record merged with the
	// instance's spans, scraped across a real HTTP hop.
	tresp, err := http.Get(front.URL + "/v1/traces?trace_id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Total  uint64 `json:"total"`
		Traces []struct {
			RequestID  string           `json:"request_id"`
			Spans      []telemetry.Span `json:"spans"`
			Tree       string           `json:"tree"`
			MergeError string           `json:"merge_error"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK || len(traces.Traces) != 1 {
		t.Fatalf("/v1/traces?trace_id= = %d with %d traces, want 200 with 1",
			tresp.StatusCode, len(traces.Traces))
	}
	tr := traces.Traces[0]
	if tr.RequestID != "fleet-probe-1" || tr.MergeError != "" {
		t.Fatalf("trace = request_id %q merge_error %q", tr.RequestID, tr.MergeError)
	}
	var hops []string
	for _, sp := range tr.Spans {
		hops = append(hops, sp.Name)
	}
	for _, want := range []string{"router", "instance", "parse", "render"} {
		found := false
		for _, h := range hops {
			if h == want {
				found = true
			}
		}
		if !found {
			t.Errorf("merged trace missing %q span: %v", want, hops)
		}
	}
	if !strings.HasPrefix(tr.Tree, "router ") {
		t.Errorf("merged tree does not root at the router span:\n%s", tr.Tree)
	}

	// Unfiltered listing stays cheap: router spans only, no merge.
	lresp, err := http.Get(front.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(lresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(traces.Traces) != 1 || len(traces.Traces[0].Spans) != 1 ||
		traces.Traces[0].Spans[0].Name != "router" {
		t.Errorf("unfiltered listing = %+v, want the router span alone", traces.Traces)
	}

	// /v1/fleet: router state plus each member's own healthz, verbatim.
	fresp, err := http.Get(front.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fleet struct {
		Router struct {
			Instances []struct {
				URL    string `json:"url"`
				Health string `json:"health"`
			} `json:"instances"`
		} `json:"router"`
		Members []struct {
			URL     string          `json:"url"`
			Healthz json.RawMessage `json:"healthz"`
			Error   string          `json:"error"`
		} `json:"members"`
	}
	if err := json.NewDecoder(fresp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK || len(fleet.Members) != 1 {
		t.Fatalf("/v1/fleet = %d with %d members, want 200 with 1", fresp.StatusCode, len(fleet.Members))
	}
	m := fleet.Members[0]
	if m.URL != inst.URL || m.Error != "" {
		t.Fatalf("fleet member = %+v", m)
	}
	var hz struct {
		Status string `json:"status"`
		Served int    `json:"served"`
	}
	if err := json.Unmarshal(m.Healthz, &hz); err != nil {
		t.Fatalf("member healthz not verbatim JSON: %v\n%s", err, m.Healthz)
	}
	if hz.Status != "ok" || hz.Served < 1 {
		t.Errorf("member healthz = %+v, want ok with served >= 1", hz)
	}

	// Method and filter validation on both read surfaces.
	for _, path := range []string{"/v1/traces", "/v1/fleet"} {
		presp, err := http.Post(front.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		if presp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, presp.StatusCode)
		}
	}
	bresp, err := http.Get(front.URL + "/v1/traces?min_ms=junk")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_ms = %d, want 400", bresp.StatusCode)
	}
}
