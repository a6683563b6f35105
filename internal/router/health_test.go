// White-box tests for the one health model: the tracker's hysteresis,
// breaker recovery through a probe streak, per-URL probe concurrency,
// and a URL's verdict surviving Watch, Join and Eject.
package router

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leak"
	"repro/internal/telemetry"
)

func TestTrackerHysteresis(t *testing.T) {
	const P, F = true, false
	cases := []struct {
		name  string
		probe []bool
		want  []verdict // verdict after each probe
	}{
		{"two passes go up", []bool{P, P}, []verdict{unknown, up}},
		{"two fails go down", []bool{F, F}, []verdict{unknown, down}},
		{"flapping from unknown never flips", []bool{P, F, P, F, P, F}, []verdict{unknown, unknown, unknown, unknown, unknown, unknown}},
		{"flapping while up never flips", []bool{P, P, F, P, F, P, F}, []verdict{unknown, up, up, up, up, up, up}},
		{"flapping while down never flips", []bool{F, F, P, F, P, F}, []verdict{unknown, down, down, down, down, down}},
		{"recovery streak goes back up", []bool{F, F, P, P}, []verdict{unknown, down, down, up}},
		{"a pass breaks a fail streak", []bool{P, P, F, P, F, F}, []verdict{unknown, up, up, up, up, down}},
	}
	for _, c := range cases {
		var tr tracker
		for i, pass := range c.probe {
			was, now := tr.observe(pass)
			if now != c.want[i] || tr.get() != now {
				t.Errorf("%s: after probe %d verdict %v (stored %v), want %v", c.name, i, now, tr.get(), c.want[i])
			}
			if i > 0 && was != c.want[i-1] {
				t.Errorf("%s: probe %d reported previous verdict %v, want %v", c.name, i, was, c.want[i-1])
			}
		}
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// healthzServer answers 200 while ok holds, 503 otherwise.
func healthzServer(t *testing.T, ok *atomic.Bool) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ok.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func newTestRouter(t *testing.T, interval time.Duration, backends ...string) *Router {
	t.Helper()
	rt, err := New(Config{
		Backends:        backends,
		HealthInterval:  interval,
		BreakerCooldown: time.Hour, // only a probe streak can close the breaker
		Metrics:         telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestRecoveryStreakClosesBreaker: a member judged down with its
// breaker open returns to rotation on the prober's recovery streak
// alone — the verdict readmits it and the breaker closes with it.
func TestRecoveryStreakClosesBreaker(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var ok atomic.Bool
	srv := healthzServer(t, &ok)
	rt := newTestRouter(t, 10*time.Millisecond, srv.URL)
	in := rt.findInstance(srv.URL)

	waitFor(t, "down verdict", func() bool { return in.health.get() == down })
	if v := rt.reg.Value(mInstUp, "instance", srv.URL); v != 0 {
		t.Fatalf("%s = %v for a down member, want 0", mInstUp, v)
	}
	in.recordFailure(1, time.Hour)
	if in.eligible(time.Now()) || rt.State().Status != "unhealthy" {
		t.Fatalf("down member with an open breaker is still routable: %+v", rt.State())
	}

	ok.Store(true)
	waitFor(t, "up verdict", func() bool { return in.health.get() == up })
	if !in.eligible(time.Now()) || in.breakerOpen(time.Now()) {
		t.Fatal("recovery streak did not close the breaker")
	}
	if st := rt.State(); st.Status != "ok" || st.Instances[0].Health != HealthUp {
		t.Fatalf("state after recovery = %+v, want ok with the member up", st)
	}
	if v := rt.reg.Value(mInstUp, "instance", srv.URL); v != 1 {
		t.Fatalf("%s = %v for an up member, want 1", mInstUp, v)
	}
}

// TestBlackholedWatchDelaysNoVerdict: a watched URL that accepts
// connections and never answers holds a probe open for the full probe
// timeout, yet a ring member's recovery is judged on the prober's own
// cadence — at most one interval later than its streak needs.
func TestBlackholedWatchDelaysNoVerdict(t *testing.T) {
	t.Cleanup(leak.Check(t))
	release := make(chan struct{})
	var holes atomic.Int64
	hole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		holes.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hole.Close)

	var ok atomic.Bool
	srv := healthzServer(t, &ok)
	const interval = 150 * time.Millisecond
	rt := newTestRouter(t, interval, srv.URL)
	t.Cleanup(func() { close(release) }) // before rt.Close waits on the probe
	rt.Watch([]string{hole.URL})
	waitFor(t, "a probe stuck in the blackhole", func() bool { return holes.Load() > 0 })

	start := time.Now()
	ok.Store(true)
	in := rt.findInstance(srv.URL)
	waitFor(t, "member up", func() bool { return in.health.get() == up })
	if took, limit := time.Since(start), (probeUpAfter+1)*interval; took > limit {
		t.Fatalf("member judged up %v after recovering, want <= %v: the blackholed probe held back its round", took, limit)
	}
}

// TestWatchedVerdictSurvivesJoinAndEject: a watched URL is judged
// before it joins, joins with that verdict, and keeps it when ejected
// while still watched; an unwatched off-ring URL is no longer reported.
func TestWatchedVerdictSurvivesJoinAndEject(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var ok atomic.Bool
	ok.Store(true)
	member := healthzServer(t, &ok)
	cand := healthzServer(t, &ok)
	rt := newTestRouter(t, 10*time.Millisecond, member.URL)

	find := func(url string) (InstanceState, bool) {
		for _, in := range rt.State().Instances {
			if in.URL == url {
				return in, true
			}
		}
		return InstanceState{}, false
	}
	rt.Watch([]string{member.URL, cand.URL})
	waitFor(t, "candidate up off the ring", func() bool {
		in, seen := find(cand.URL)
		return seen && !in.OnRing && in.Health == HealthUp
	})

	ok.Store(false) // no probe can pass from here on
	if _, _, err := rt.Join(cand.URL); err != nil {
		t.Fatal(err)
	}
	if in, _ := find(cand.URL); !in.OnRing || in.Health != HealthUp {
		t.Fatalf("joined candidate = %+v, want on the ring with the verdict that admitted it", in)
	}
	waitFor(t, "candidate down on the ring", func() bool {
		in, _ := find(cand.URL)
		return in.Health == HealthDown
	})
	if _, err := rt.Eject(cand.URL); err != nil {
		t.Fatal(err)
	}
	if in, seen := find(cand.URL); !seen || in.OnRing || in.Health != HealthDown {
		t.Fatalf("ejected watched URL = %+v (seen %v), want off the ring, still down", in, seen)
	}

	rt.Watch([]string{member.URL})
	if _, seen := find(cand.URL); seen {
		t.Fatal("an unwatched off-ring URL is still reported")
	}
}
