// Package websim models the application side of a Web server as CAAI sees
// it: how many pipelined HTTP requests it accepts (the paper's Fig. 6), how
// long its default and longest pages are (Fig. 7), the smallest MSS it
// accepts (Table II), and the TCP stack options that produce the paper's
// invalid and special traces (F-RTO, slow start threshold caching, send
// buffer limits, proxies).
package websim

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/tcpsim"
)

// Server describes one Web server in the simulated Internet.
type Server struct {
	// Name identifies the server (census bookkeeping).
	Name string
	// Algorithm is the canonical name of the server's congestion
	// avoidance algorithm (a key of the cc registry).
	Algorithm string
	// CustomAlgorithm, when non-nil, overrides Algorithm with an
	// arbitrary implementation (unknown algorithms in the census, the
	// "Approaching w(tmo)" special behaviour, user extensions).
	CustomAlgorithm func() cc.Algorithm
	// ProxyAlgorithm, when non-empty, models a TCP proxy (load
	// balancer) splitting the connection: CAAI observes the proxy's
	// algorithm rather than the server's.
	ProxyAlgorithm string

	// MinMSS is the smallest MSS the server accepts (Table II).
	MinMSS int
	// MaxRequests is the maximum number of repeated pipelined HTTP
	// requests the server serves on one connection (Fig. 6).
	MaxRequests int
	// DefaultPageBytes and LongestPageBytes are the page sizes CAAI can
	// request (Fig. 7). LongestPageBytes is what the page-searching tool
	// can discover; 0 means no page beyond the default exists.
	DefaultPageBytes int64
	LongestPageBytes int64

	// Software is the HTTP server software label (Apache, IIS, ...).
	Software string
	// Region is the continent label used in the census demographics.
	Region string

	// TCP stack behaviour knobs.
	FRTO               bool
	SsthreshCaching    bool
	CacheTTL           time.Duration // ssthresh cache lifetime; 0 = default
	SendBufferSegments int64
	CwndClamp          float64
	PostTimeoutClamp   float64
	IgnoreRTO          bool
	InitialWindow      float64
	// Recovery selects the loss recovery component (default NewReno),
	// and SlowStart the slow start component (default standard) -- the
	// other Fig. 1 components, identified by TBIT rather than CAAI.
	Recovery  tcpsim.RecoveryScheme
	SlowStart tcpsim.SlowStartScheme
	// BurstinessControl enables Linux cwnd moderation on recovery exit.
	BurstinessControl bool

	cachedSsthresh float64
	cachedAt       time.Duration
	hasCache       bool
}

// defaultCacheTTL mirrors typical route-metric cache lifetimes; the paper's
// 10-minute inter-environment wait comfortably outlives it.
const defaultCacheTTL = 5 * time.Minute

// EffectiveAlgorithm returns the algorithm CAAI actually observes,
// accounting for proxies.
func (s *Server) EffectiveAlgorithm() string {
	if s.ProxyAlgorithm != "" {
		return s.ProxyAlgorithm
	}
	return s.Algorithm
}

// AcceptsMSS reports whether the server accepts a connection whose MSS
// option is mss bytes.
func (s *Server) AcceptsMSS(mss int) bool { return mss >= s.MinMSS }

// AcceptRequests returns how many of the requested pipelined HTTP requests
// the server will actually serve.
func (s *Server) AcceptRequests(requested int) int {
	if s.MaxRequests <= 0 {
		return requested
	}
	if requested > s.MaxRequests {
		return s.MaxRequests
	}
	return requested
}

// connOptions computes the tcpsim options one connection runs with: mss
// is the negotiated segment size, requests the number of pipelined HTTP
// requests CAAI sent, pageBytes the length of the page each request
// fetches, and now the wall-clock time (drives slow start threshold cache
// expiry).
func (s *Server) connOptions(mss, requests int, pageBytes int64, now time.Duration) (tcpsim.Options, error) {
	if !s.AcceptsMSS(mss) {
		return tcpsim.Options{}, fmt.Errorf("websim: server %s rejects mss %d (minimum %d)", s.Name, mss, s.MinMSS)
	}
	accepted := s.AcceptRequests(requests)
	totalBytes := int64(accepted) * pageBytes
	totalSegs := (totalBytes + int64(mss) - 1) / int64(mss)
	opts := tcpsim.Options{
		MSS:                mss,
		InitialWindow:      s.InitialWindow,
		TotalSegments:      totalSegs,
		SendBufferSegments: s.SendBufferSegments,
		CwndClamp:          s.CwndClamp,
		PostTimeoutClamp:   s.PostTimeoutClamp,
		FRTO:               s.FRTO,
		IgnoreRTO:          s.IgnoreRTO,
		Recovery:           s.Recovery,
		SlowStart:          s.SlowStart,
		BurstinessControl:  s.BurstinessControl,
	}
	if s.SsthreshCaching && s.hasCache {
		ttl := s.CacheTTL
		if ttl <= 0 {
			ttl = defaultCacheTTL
		}
		if now-s.cachedAt <= ttl {
			opts.InitialSsthresh = s.cachedSsthresh
		}
	}
	return opts, nil
}

// ResetCache forgets the cached slow start threshold, as if the paper's
// inter-measurement wait let the route metrics expire. Census runners
// call it before each identification so a server's outcome is a pure
// function of its spec and the probe seed, independent of how many times
// earlier runs or retries probed it. (Caching *within* one
// identification -- the behaviour CAAI must see through -- is untouched:
// it builds up between a single gathering's environments.)
func (s *Server) ResetCache() {
	s.cachedSsthresh = 0
	s.cachedAt = 0
	s.hasCache = false
}

// Close ends a connection at time now, caching the slow start threshold
// when the server implements threshold caching.
func (s *Server) Close(sender *tcpsim.Sender, now time.Duration) {
	if sender == nil || !s.SsthreshCaching {
		return
	}
	if th := sender.CurrentSsthresh(); th < cc.InitialSsthresh {
		s.cachedSsthresh = th
		s.cachedAt = now
		s.hasCache = true
	}
}

// Testbed returns a cooperative lab server running the named algorithm:
// unlimited pipelining, an effectively infinite page, a 100-byte minimum
// MSS, and no special stack behaviours. This is the paper's training
// testbed (Apache/IIS on the lab machines).
func Testbed(algorithm string) *Server {
	return &Server{
		Name:             "testbed-" + algorithm,
		Algorithm:        algorithm,
		MinMSS:           100,
		MaxRequests:      0, // unlimited
		DefaultPageBytes: 64 << 20,
		LongestPageBytes: 64 << 20,
		Software:         "Apache",
		Region:           "Lab",
	}
}
