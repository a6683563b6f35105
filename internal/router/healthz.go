package router

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// InstanceState is one observed URL's health as the router sees it,
// embedded in the router's /v1/healthz: every ring member, then every
// watched URL off the ring (OnRing false, request-path fields zero).
type InstanceState struct {
	URL    string `json:"url"`
	Health string `json:"health"` // HealthUnknown, HealthUp or HealthDown
	OnRing bool   `json:"on_ring"`
	// Draining means the admin surface is retiring this member: no new
	// assignments; removal lands when Inflight holds at zero.
	Draining bool `json:"draining"`
	// BreakerOpen means the request-path circuit is holding the
	// instance out of rotation right now.
	BreakerOpen bool `json:"breaker_open"`
	// ConsecutiveFailures is the current request-path failure run.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// Inflight counts requests currently proxied to this instance.
	Inflight int64 `json:"inflight"`
	// Requests/Failures are lifetime proxied-attempt totals, read from
	// the same registry /v1/metrics exposes.
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
}

// StampedeState summarizes the stampede-control layer, present in the
// snapshot only when the layer is enabled.
type StampedeState struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Coalesced int64 `json:"coalesced"`
	Inserts   int64 `json:"inserts"`
}

// State is the router's health snapshot.
type State struct {
	// Status is "ok" (every member eligible and observed up),
	// "degraded" (some member eligible, but not all of them up), or
	// "unhealthy" (no member eligible; healthz also answers 503).
	Status string `json:"status"`
	// Epoch is the topology version; it bumps on every join/eject.
	Epoch     uint64          `json:"epoch"`
	Instances []InstanceState `json:"instances"`
	Failovers int64           `json:"failovers"`
	Shed      int64           `json:"shed"`
	// PatternKeys is the learned body-hash→pattern table size.
	PatternKeys int `json:"pattern_keys"`
	// HotPatterns counts patterns currently promoted to replicated
	// reads (always 0 when hot replication is disabled).
	HotPatterns int `json:"hot_patterns"`
	// Stampede is the stampede-control summary, nil when disabled.
	Stampede *StampedeState `json:"stampede,omitempty"`
}

// State reads the snapshot against one topology load; every number
// comes from the router's registry or the same atomics its routing
// decisions use, so healthz, metrics, and behavior can never disagree.
func (rt *Router) State() State {
	now := time.Now()
	tp := rt.topo.Load()
	st := State{
		Epoch:       tp.epoch,
		Instances:   make([]InstanceState, 0, len(tp.insts)),
		Failovers:   rt.failovers.Value(),
		Shed:        rt.noHealthy.Value(),
		PatternKeys: rt.keys.len(),
	}
	if rt.hot != nil {
		st.HotPatterns = rt.hot.promotedCount()
	}
	if rt.stampede != nil {
		st.Stampede = &StampedeState{
			Entries:   rt.stampede.size(),
			Hits:      int64(rt.stampedeCount("hit").Value()),
			Coalesced: int64(rt.stampedeCount("coalesced").Value()),
			Inserts:   int64(rt.stampedeCount("insert").Value()),
		}
	}
	eligible, serving := 0, 0
	for _, in := range tp.insts {
		if in.eligible(now) {
			eligible++
			if in.health.get() == up {
				serving++
			}
		}
		st.Instances = append(st.Instances, InstanceState{
			URL:                 in.url,
			Health:              verdictNames[in.health.get()],
			OnRing:              true,
			Draining:            in.draining.Load(),
			BreakerOpen:         in.breakerOpen(now),
			ConsecutiveFailures: in.consecFails.Load(),
			Inflight:            in.inflight.Load(),
			Requests:            int64(rt.reg.Value(mInstReqs, "instance", in.url)),
			Failures:            int64(rt.reg.Value(mInstFails, "instance", in.url)),
		})
	}
	var off []InstanceState
	for url, t := range rt.probeTargets() {
		if tp.find(url) == nil {
			off = append(off, InstanceState{URL: url, Health: verdictNames[t.get()]})
		}
	}
	sort.Slice(off, func(i, j int) bool { return off[i].URL < off[j].URL })
	st.Instances = append(st.Instances, off...)
	switch {
	case eligible == 0:
		st.Status = "unhealthy"
	case serving == len(tp.insts):
		st.Status = "ok"
	default:
		st.Status = "degraded"
	}
	return st
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.State()
	w.Header().Set("Content-Type", "application/json")
	if st.Status == "unhealthy" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(st)
}

// keytab remembers which canonical pattern a request body hashes to,
// learned from backend response headers, so isomorphic queries shard
// together. Bounded the same way the pool's affinity index is: at the
// cap the whole table resets — losing learned affinity costs a few
// cache-cold requests, never correctness.
type keytab struct {
	mu  sync.RWMutex
	m   map[uint64]string
	cap int
}

func newKeytab() *keytab {
	return &keytab{m: make(map[uint64]string), cap: 4096}
}

func (k *keytab) get(h uint64) string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.m[h]
}

func (k *keytab) put(h uint64, pattern string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.m) >= k.cap {
		k.m = make(map[uint64]string, k.cap/4)
	}
	k.m[h] = pattern
}

func (k *keytab) len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.m)
}
