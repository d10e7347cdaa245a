package websim

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/tcpsim"
)

// Dialer opens connections to simulated servers with recycled state: one
// Sender (and its Conn) is renewed in place per connection, and congestion
// avoidance components are cached per algorithm name and rewound with
// Reset. A connection opened through a Dialer behaves exactly like a fresh
// tcpsim.New(cc.New(...)) -- Algorithm.Reset's contract is that a rewound
// instance is indistinguishable from a fresh one -- but steady-state opens
// allocate nothing, which is what keeps the identification hot path at
// zero allocations per probe. The zero Dialer is ready to use.
//
// The returned sender is valid only until the Dialer's next Open, and a
// Dialer is not safe for concurrent use: it belongs to exactly one prober.
type Dialer struct {
	sender tcpsim.Sender
	algs   map[string]cc.Algorithm
}

// Open establishes a connection to s (see Server.connOptions for the
// arguments). Servers with a CustomAlgorithm factory get a fresh instance
// per call (the factory may close over arbitrary state), so only
// named-algorithm servers hit the zero-allocation path.
func (d *Dialer) Open(s *Server, mss, requests int, pageBytes int64, now time.Duration) (*tcpsim.Sender, error) {
	opts, err := s.connOptions(mss, requests, pageBytes, now)
	if err != nil {
		return nil, err
	}
	alg, err := d.algorithm(s)
	if err != nil {
		return nil, err
	}
	d.sender.Renew(alg, opts)
	return &d.sender, nil
}

// algorithm resolves the connection's congestion avoidance component,
// reusing one cached instance per algorithm name.
func (d *Dialer) algorithm(s *Server) (cc.Algorithm, error) {
	if s.CustomAlgorithm != nil {
		return s.CustomAlgorithm(), nil
	}
	name := s.EffectiveAlgorithm()
	if alg, ok := d.algs[name]; ok {
		return alg, nil
	}
	alg, err := cc.New(name)
	if err != nil {
		return nil, fmt.Errorf("websim: server %s: %w", s.Name, err)
	}
	if d.algs == nil {
		d.algs = make(map[string]cc.Algorithm, 8)
	}
	d.algs[name] = alg
	return alg, nil
}
