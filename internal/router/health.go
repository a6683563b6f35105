package router

import (
	"net/http"
	"sync/atomic"
	"time"
)

// Probe policy, shared by ring routing and the fleet supervisor: the
// router's prober is a deployment's one health observer. Hysteresis
// keeps one blown probe against a busy instance from ejecting it, and a
// flapping instance from being trusted on one lucky probe.
const (
	probeTimeout   = time.Second
	probeDownAfter = 2 // consecutive failures that mark a URL down
	probeUpAfter   = 2 // consecutive passes that mark a URL up
)

// Verdicts reported in InstanceState.Health. An unknown member (no full
// streak observed yet) stays routable, so a router booting ahead of its
// backends does not shed, but it is never reported up.
const (
	HealthUnknown = "unknown"
	HealthUp      = "up"
	HealthDown    = "down"
)

type verdict int32

const (
	unknown verdict = iota
	up
	down
)

var verdictNames = [...]string{unknown: HealthUnknown, up: HealthUp, down: HealthDown}

// tracker is the hysteresis filter over one URL's probe results, shared
// by the ring member and the watch list entry for that URL.
type tracker struct {
	v atomic.Int32
	// busy is held while a probe of the URL is in flight; the prober
	// skips a busy URL, so probes never overlap and streak needs no lock.
	busy   atomic.Bool
	streak int // consecutive passes (> 0) or failures (< 0)
}

func (t *tracker) get() verdict { return verdict(t.v.Load()) }

// observe folds one probe result into the streak and returns the
// verdict before and after it.
func (t *tracker) observe(pass bool) (was, now verdict) {
	was, now = t.get(), t.get()
	if pass {
		t.streak = max(t.streak, 0) + 1
		if t.streak >= probeUpAfter {
			now = up
		}
	} else {
		t.streak = min(t.streak, 0) - 1
		if t.streak <= -probeDownAfter {
			now = down
		}
	}
	t.v.Store(int32(now))
	return was, now
}

// instance is one routed-to backend plus its health bookkeeping. Three
// independent signals gate traffic: the prober's verdict (health), the
// request-path circuit breaker (openUntil), and the operator's drain
// flag. Any of them alone can take the instance out of rotation; all
// must agree it is fine before the ring hands it a key again.
type instance struct {
	url string

	// health is the prober's verdict on url. Only down takes the
	// instance out of rotation; unknown is routable.
	health *tracker
	// draining marks an instance the admin surface is retiring: it
	// receives no new assignments, finishes what it has, and is removed
	// from the ring once its in-flight count reaches zero.
	draining atomic.Bool
	// inflight counts requests currently proxied to this instance; the
	// drain waiter removes the member only once this holds at zero.
	inflight atomic.Int64
	// consecFails counts request-path failures (transport errors,
	// 502/503) since the last success; reaching the breaker threshold
	// opens the breaker for the cooldown.
	consecFails atomic.Int64
	// openUntil is the breaker deadline in unix nanos; 0 means closed.
	openUntil atomic.Int64
}

// eligible reports whether the ring may hand this instance a request.
func (in *instance) eligible(now time.Time) bool {
	return in.health.get() != down && !in.draining.Load() && now.UnixNano() >= in.openUntil.Load()
}

func (in *instance) breakerOpen(now time.Time) bool {
	return now.UnixNano() < in.openUntil.Load()
}

// recordSuccess closes the breaker — any proxied success proves the
// instance serves again.
func (in *instance) recordSuccess() {
	in.consecFails.Store(0)
	in.openUntil.Store(0)
}

// recordFailure counts one request-path failure and opens the breaker
// once the run reaches threshold.
func (in *instance) recordFailure(threshold int, cooldown time.Duration) {
	if in.consecFails.Add(1) >= int64(threshold) {
		in.openUntil.Store(time.Now().Add(cooldown).UnixNano())
	}
}

// Watch replaces the set of URLs the prober observes besides the ring
// members; a fleet supervisor passes its desired set, so a candidate is
// judged before it joins. Malformed URLs are skipped: Join refuses them.
func (rt *Router) Watch(urls []string) {
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	next := make(map[string]*tracker, len(urls))
	for _, raw := range urls {
		u, err := NormalizeMember(raw)
		if err != nil {
			continue
		}
		next[u] = rt.trackerOf(u)
	}
	rt.watched = next
}

// trackerOf returns url's one tracker — the watch list's, else its ring
// member's, else a fresh unknown one — so a URL keeps its verdict across
// Watch, Join and Eject. Caller holds memberMu.
func (rt *Router) trackerOf(url string) *tracker {
	if t := rt.watched[url]; t != nil {
		return t
	}
	if in := rt.topo.Load().find(url); in != nil {
		return in.health
	}
	return &tracker{}
}

// probe runs one active health check: a GET against /v1/healthz with a
// hard timeout. Any 200 is a pass; anything else — including a healthz
// that answers 503 because the backend is draining — is a fail.
func (rt *Router) probe(url string, t *tracker) {
	defer rt.loops.Done()
	defer t.busy.Store(false)
	pass := false
	if resp, err := rt.probeClient.Get(url + "/v1/healthz"); err == nil { // probeTimeout bounds it
		drain(resp)
		pass = resp.StatusCode == http.StatusOK
	}
	was, now := t.observe(pass)
	if was == now {
		return
	}
	if in := rt.findInstance(url); in != nil && now == up {
		// A passing streak also closes the breaker: the cooldown exists
		// to stop hammering a struggling instance, and a health-check
		// streak is better evidence than an expired timer.
		in.recordSuccess()
	}
	rt.log("instance health changed", "instance", url, "from", verdictNames[was], "to", verdictNames[now])
}

// prober starts one probe round per HealthInterval until Close: each
// ring member and watched URL once, each probe on its own goroutine so
// a blackholed URL delays no other verdict. A URL whose last probe is
// still in flight is skipped.
func (rt *Router) prober() {
	defer rt.loops.Done()
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	for {
		for url, t := range rt.probeTargets() {
			if t.busy.CompareAndSwap(false, true) {
				rt.loops.Add(1)
				go rt.probe(url, t)
			}
		}
		select {
		case <-rt.closed:
			return
		case <-tick.C:
		}
	}
}

// probeTargets snapshots every observed URL with its tracker.
func (rt *Router) probeTargets() map[string]*tracker {
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	tp := rt.topo.Load()
	targets := make(map[string]*tracker, len(tp.insts)+len(rt.watched))
	for url, t := range rt.watched {
		targets[url] = t
	}
	for _, in := range tp.insts {
		targets[in.url] = in.health
	}
	return targets
}
