package websim

import (
	"testing"
	"time"

	"repro/internal/cc"
)

func TestAcceptsMSS(t *testing.T) {
	s := &Server{MinMSS: 536}
	if s.AcceptsMSS(100) || s.AcceptsMSS(300) {
		t.Fatal("server must reject MSS below its minimum")
	}
	if !s.AcceptsMSS(536) || !s.AcceptsMSS(1460) {
		t.Fatal("server must accept MSS at or above its minimum")
	}
}

func TestAcceptRequests(t *testing.T) {
	s := &Server{MaxRequests: 3}
	if got := s.AcceptRequests(12); got != 3 {
		t.Fatalf("AcceptRequests(12) = %d, want 3", got)
	}
	if got := s.AcceptRequests(2); got != 2 {
		t.Fatalf("AcceptRequests(2) = %d, want 2", got)
	}
	unlimited := &Server{}
	if got := unlimited.AcceptRequests(12); got != 12 {
		t.Fatalf("unlimited AcceptRequests = %d", got)
	}
}

func TestOpenComputesSegments(t *testing.T) {
	var d Dialer
	s := Testbed("RENO")
	s.MaxRequests = 2
	s.DefaultPageBytes = 1000
	sender, err := d.Open(s, 100, 12, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2 requests x 1000 bytes at mss 100 = 20 segments.
	burst := sender.SendBurst(0)
	total := len(burst)
	for len(burst) > 0 {
		sender.BeginRound(1)
		for _, seg := range burst {
			sender.DeliverAck(time.Second, seg.ID+1, time.Second)
		}
		burst = sender.SendBurst(time.Second)
		total += len(burst)
	}
	if total != 20 {
		t.Fatalf("total segments = %d, want 20", total)
	}
}

func TestOpenRejectsSmallMSS(t *testing.T) {
	var d Dialer
	s := Testbed("RENO")
	s.MinMSS = 536
	if _, err := d.Open(s, 100, 1, 1000, 0); err == nil {
		t.Fatal("Open must reject an MSS below the minimum")
	}
}

func TestOpenUnknownAlgorithm(t *testing.T) {
	var d Dialer
	s := &Server{Name: "x", Algorithm: "NOPE", MinMSS: 100}
	if _, err := d.Open(s, 536, 1, 1000, 0); err == nil {
		t.Fatal("Open must surface unknown algorithms")
	}
}

func TestEffectiveAlgorithmProxy(t *testing.T) {
	s := &Server{Algorithm: "CTCP1", ProxyAlgorithm: "BIC"}
	if got := s.EffectiveAlgorithm(); got != "BIC" {
		t.Fatalf("EffectiveAlgorithm = %s, want the proxy's BIC", got)
	}
	s.ProxyAlgorithm = ""
	if got := s.EffectiveAlgorithm(); got != "CTCP1" {
		t.Fatalf("EffectiveAlgorithm = %s", got)
	}
}

func TestCustomAlgorithmOverride(t *testing.T) {
	var d Dialer
	s := Testbed("RENO")
	s.CustomAlgorithm = func() cc.Algorithm { return cc.NewSTCP() }
	sender, err := d.Open(s, 536, 1, 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sender.Algorithm().Name(); got != "STCP" {
		t.Fatalf("algorithm = %s, want the custom STCP", got)
	}
}

func TestSsthreshCaching(t *testing.T) {
	var d Dialer
	s := Testbed("RENO")
	s.SsthreshCaching = true
	s.CacheTTL = 5 * time.Minute

	first, err := d.Open(s, 536, 1, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	first.OnRTOExpired(time.Second) // forces a finite ssthresh
	th := first.CurrentSsthresh()
	s.Close(first, 10*time.Second)

	// Within the TTL the cached threshold applies.
	second, err := d.Open(s, 536, 1, 1<<20, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.CurrentSsthresh(); got != th {
		t.Fatalf("cached ssthresh = %v, want %v", got, th)
	}

	// Past the TTL the cache expires (the paper's 10-minute wait).
	third, err := d.Open(s, 536, 1, 1<<20, 10*time.Second+10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := third.CurrentSsthresh(); got == th {
		t.Fatal("cache must expire after the TTL")
	}
}

func TestNoCachingWithoutFlag(t *testing.T) {
	var d Dialer
	s := Testbed("RENO")
	first, _ := d.Open(s, 536, 1, 1<<20, 0)
	first.OnRTOExpired(time.Second)
	s.Close(first, 2*time.Second)
	second, _ := d.Open(s, 536, 1, 1<<20, 3*time.Second)
	if second.CurrentSsthresh() < cc.InitialSsthresh {
		t.Fatal("non-caching server must start with infinite ssthresh")
	}
}

func TestTestbedProperties(t *testing.T) {
	s := Testbed("CUBIC2")
	if !s.AcceptsMSS(100) {
		t.Fatal("testbed must accept the smallest ladder MSS")
	}
	if s.AcceptRequests(12) != 12 {
		t.Fatal("testbed must accept unlimited requests")
	}
	if s.LongestPageBytes < 1<<20 {
		t.Fatal("testbed must host a long page")
	}
	if s.EffectiveAlgorithm() != "CUBIC2" {
		t.Fatal("testbed algorithm mismatch")
	}
}
