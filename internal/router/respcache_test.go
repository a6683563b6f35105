// White-box tests for the stampede layer: the verified-only
// shareability rule, singleflight leader/follower resolution, TTL
// expiry, and the bounded cache. Time is passed explicitly.
package router

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/diagcache"
)

func respWith(status int, hdr map[string]string) *sharedResp {
	h := http.Header{}
	for k, v := range hdr {
		h.Set(k, v)
	}
	return &sharedResp{status: status, header: h, body: []byte(`{"diagram":"digraph {}"}`)}
}

// TestShareableFollowsVerifiedOnlyRule: over every combination of
// status, verify header and degraded header, the router shares exactly
// the 200s diagcache would cache — verified, or verification off (no
// header), and never degraded.
func TestShareableFollowsVerifiedOnlyRule(t *testing.T) {
	for _, status := range []int{200, 400, 503} {
		for _, verify := range []string{"", "off", "verified", "failed", "timeout", "skipped", "mismatch", "budget_exhausted"} {
			for _, degraded := range []string{"", "simplified", "worker_crash"} {
				hdr := map[string]string{}
				if verify != "" {
					hdr["X-QueryVis-Verify-Status"] = verify
				}
				if degraded != "" {
					hdr["X-QueryVis-Degraded"] = degraded
				}
				want := status == 200 && degraded == "" &&
					(verify == "" || verify == "off" || verify == "verified")
				if got := respWith(status, hdr).shareable(); got != want {
					t.Errorf("status %d verify %q degraded %q: shareable() = %v, want %v", status, verify, degraded, got, want)
				}
				effective := verify
				if effective == "" {
					effective = "off"
				}
				if cached := diagcache.CacheableStatus(effective, degraded); status == 200 && cached != want {
					t.Errorf("verify %q degraded %q: diagcache caches = %v, router shares = %v", verify, degraded, cached, want)
				}
			}
		}
	}
	if (*sharedResp)(nil).shareable() {
		t.Error("a nil response must not be shareable")
	}
}

func TestStampedeSingleflightResolution(t *testing.T) {
	s := newStampede(time.Second, 16)
	now := time.Unix(5000, 0)

	f1, leader := s.join("k")
	if !leader {
		t.Fatal("first join must lead")
	}
	f2, leader2 := s.join("k")
	if leader2 || f2 != f1 {
		t.Fatal("second join must follow the existing flight")
	}

	sr := respWith(200, nil)
	if !s.complete("k", f1, sr, now) {
		t.Fatal("shareable 200 must be inserted")
	}
	select {
	case <-f2.done:
	default:
		t.Fatal("followers not woken by complete")
	}
	if f2.sr != sr {
		t.Fatal("follower did not receive the leader's response")
	}
	if got := s.get("k", now.Add(500*time.Millisecond)); got != sr {
		t.Fatal("shareable response not served from the TTL cache")
	}
	if got := s.get("k", now.Add(2*time.Second)); got != nil {
		t.Fatal("entry survived past its TTL")
	}

	// A fresh flight for the same key leads again once resolved.
	if _, leader := s.join("k"); !leader {
		t.Fatal("key not released after complete")
	}
}

func TestStampedeUnshareableResolvesNilAndCachesNothing(t *testing.T) {
	s := newStampede(time.Second, 16)
	now := time.Unix(6000, 0)
	f, _ := s.join("k")
	if s.complete("k", f, respWith(503, nil), now) {
		t.Fatal("a 503 must not be inserted")
	}
	if f.sr != nil {
		t.Fatal("followers must see nil for an unshareable outcome")
	}
	if s.get("k", now) != nil || s.size() != 0 {
		t.Fatal("unshareable outcome leaked into the cache")
	}
}

func TestStampedeCacheStaysBounded(t *testing.T) {
	s := newStampede(time.Hour, 8) // nothing expires during the test
	now := time.Unix(7000, 0)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k-%d", i)
		f, _ := s.join(k)
		s.complete(k, f, respWith(200, nil), now)
	}
	if n := s.size(); n > 8 {
		t.Fatalf("stampede cache holds %d entries past its cap of 8", n)
	}
}

func TestStampedeOversizedBodyNotShared(t *testing.T) {
	s := newStampede(time.Second, 16)
	now := time.Unix(8000, 0)
	sr := respWith(200, nil)
	sr.body = make([]byte, stampedeMaxBodyBytes+1)
	f, _ := s.join("k")
	if s.complete("k", f, sr, now) {
		t.Fatal("oversized body must not be inserted")
	}
	if f.sr != nil {
		t.Fatal("oversized body must not be replayed to followers")
	}
}

func TestStampedeFullOfLiveEntriesSkipsInsert(t *testing.T) {
	s := newStampede(2*time.Second, 4)
	now := time.Unix(9000, 0)
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("live-%d", i)
		f, _ := s.join(k)
		if !s.complete(k, f, respWith(200, nil), now.Add(time.Duration(i)*time.Millisecond)) {
			t.Fatalf("insert %d into a cache with room was skipped", i)
		}
	}
	// Every resident entry is live: the insert is skipped, the followers
	// still get the leader's response, and nothing resident is dropped.
	f, _ := s.join("late")
	sr := respWith(200, nil)
	if s.complete("late", f, sr, now.Add(time.Second)) {
		t.Fatal("insert into a cache full of live entries must be skipped")
	}
	if f.sr != sr {
		t.Fatal("a skipped insert must still resolve followers with the response")
	}
	if s.size() != 4 || s.get("live-0", now.Add(time.Second)) == nil {
		t.Fatal("a skipped insert evicted a live entry")
	}
	if s.head != 0 {
		t.Fatalf("expiry consumed %d live queue records", s.head)
	}
}

func TestStampedeExpiresFromQueueHead(t *testing.T) {
	s := newStampede(time.Second, 3)
	now := time.Unix(10000, 0)
	put := func(k string, at time.Time) bool {
		f, _ := s.join(k)
		return s.complete(k, f, respWith(200, nil), at)
	}
	put("a", now)
	put("b", now.Add(100*time.Millisecond))
	put("c", now.Add(200*time.Millisecond))
	// "a" has expired; "b" and "c" have not. The next insert drops "a"
	// from the head of the queue and stops at "b".
	later := now.Add(1050 * time.Millisecond)
	if !put("d", later) {
		t.Fatal("insert after the oldest entry expired was skipped")
	}
	if s.get("a", later) != nil {
		t.Fatal("expired head entry still served")
	}
	if s.get("b", later) == nil || s.get("c", later) == nil || s.get("d", later) == nil {
		t.Fatal("a live entry was expired")
	}
	// A key re-inserted after its entry was dropped leaves a stale record
	// behind; expiring that record must not drop the fresh entry.
	s.get("b", now.Add(1200*time.Millisecond)) // get drops expired "b"
	if !put("b", now.Add(1200*time.Millisecond)) {
		t.Fatal("re-insert of an expired key was skipped")
	}
	at := now.Add(1250 * time.Millisecond)
	put("e", at) // pops the stale "b" record and "c"
	if s.get("b", at) == nil {
		t.Fatal("a stale queue record expired the key's fresh entry")
	}
	// Long after everything expired, the queue drains and compacts.
	end := now.Add(time.Hour)
	for i := 0; i < 200; i++ {
		put(fmt.Sprintf("k%d", i), end.Add(time.Duration(i)*time.Hour))
	}
	if s.size() != 1 || len(s.order)-s.head != 1 {
		t.Fatalf("after serial expiry: %d resident, %d queued; want 1 and 1", s.size(), len(s.order)-s.head)
	}
	if len(s.order) > 130 {
		t.Fatalf("queue never compacted: %d records held", len(s.order))
	}
}
