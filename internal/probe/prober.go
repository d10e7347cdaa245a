package probe

import (
	"math/rand"
	"time"

	"repro/internal/netem"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/websim"
)

// Paper is the probe budget of Section IV of the paper: a four-rung wmax
// ladder tried in decreasing order (traces above 512 are hard to obtain,
// traces below 64 are almost useless), 12 pipelined requests and up to 40
// pre-timeout rounds. Model files that record no budget were trained at
// it.
var Paper = Config{WmaxLadder: []int{512, 256, 128, 64}, Requests: 12, MaxPreRounds: 40}

// DefaultMSSLadder is tried in increasing order: the smaller the MSS, the
// higher the achievable window.
var DefaultMSSLadder = []int{100, 300, 536, 1460}

// The lean budget zero Config fields resolve to: the frontier point of a
// sweep of ladder top {512, 256} x requests {6, 8, 12} x pre-timeout
// rounds {20, 30, 40}, each point trained on its own budget (DESIGN.md
// §5.4). Dropping wmax 512 roughly halves the segments per
// identification, and the matrix reads higher overall, most of all
// under loss.
var leanWmaxLadder = []int{256, 128, 64}

const (
	leanRequests     = 8
	leanMaxPreRounds = 20
)

// Config tunes a Prober. Zero fields resolve to the lean served budget
// (see Resolved); Paper is the paper's budget.
type Config struct {
	// WmaxLadder is tried in decreasing order (default 256, 128, 64).
	WmaxLadder []int
	// MSSLadder overrides DefaultMSSLadder.
	MSSLadder []int
	// Requests is how many pipelined HTTP requests CAAI repeats
	// (default 8).
	Requests int
	// MaxPreRounds bounds the pre-timeout gathering (default 20).
	MaxPreRounds int
	// PostRounds is the required post-timeout rounds (default 18).
	PostRounds int
	// InterEnvWait separates environments A and B so slow start
	// threshold caches expire (default 10 minutes, as in the paper).
	InterEnvWait time.Duration
	// DisableDupAck turns off the F-RTO counter-measure (for the
	// ablation experiment).
	DisableDupAck bool
	// DisablePageSearch skips the long-page search and uses the default
	// page (for the ablation experiment).
	DisablePageSearch bool
	// PageSearchSuccess is the probability the page-searching tool
	// finds the server's longest page (default 0.95).
	PageSearchSuccess float64
}

// Resolved returns c with every zero field replaced by its default: the
// configuration a Prober built from c actually runs.
func (c Config) Resolved() Config {
	if len(c.WmaxLadder) == 0 {
		c.WmaxLadder = leanWmaxLadder
	}
	if len(c.MSSLadder) == 0 {
		c.MSSLadder = DefaultMSSLadder
	}
	if c.Requests <= 0 {
		c.Requests = leanRequests
	}
	if c.MaxPreRounds <= 0 {
		c.MaxPreRounds = leanMaxPreRounds
	}
	if c.PostRounds <= 0 {
		c.PostRounds = trace.ValidPostRounds
	}
	if c.InterEnvWait <= 0 {
		c.InterEnvWait = 10 * time.Minute
	}
	if c.PageSearchSuccess <= 0 {
		c.PageSearchSuccess = 0.95
	}
	return c
}

// InvalidReason explains why no valid trace could be gathered (the census
// buckets of Section VII-B2).
type InvalidReason string

// Invalid-trace causes.
const (
	// ReasonNone marks a successful gathering.
	ReasonNone InvalidReason = ""
	// ReasonInsufficientData: no long enough page, or too few repeated
	// HTTP requests accepted.
	ReasonInsufficientData InvalidReason = "insufficient data"
	// ReasonNoTimeout: the window stayed at or below wmax (Fig. 13).
	ReasonNoTimeout InvalidReason = "no timeout"
	// ReasonNoResponse: the server never responded to the timeout.
	ReasonNoResponse InvalidReason = "no response after timeout"
	// ReasonMSSRejected: the server rejected every MSS of the ladder.
	ReasonMSSRejected InvalidReason = "mss rejected"
)

// Result is the outcome of gathering traces from one server.
type Result struct {
	// TraceA and TraceB are the environment A and B traces. TraceB may
	// be a no-timeout trace (the VEGAS signature).
	TraceA *trace.Trace
	TraceB *trace.Trace
	// Wmax and MSS are the ladder values that produced the traces.
	Wmax int
	MSS  int
	// PageBytes is the page length used for the repeated requests.
	PageBytes int64
	// Valid reports whether TraceA is a valid trace.
	Valid bool
	// Reason explains an invalid result.
	Reason InvalidReason
}

// Prober gathers window traces from simulated Web servers under one
// network condition. Not safe for concurrent use (owns an RNG).
type Prober struct {
	cfg  Config
	cond netem.Condition
	// path is the stateful impairment view of cond (Gilbert–Elliott burst
	// state); it is reset per gathering so every connection starts the
	// channel in the good state.
	path netem.Path
	rng  *rand.Rand
	// clock is the wall-clock of this prober's experiments; it advances
	// across sessions and the inter-environment waits.
	clock time.Duration

	// sess is the reusable gathering session (burst/ACK scratch survives
	// across gatherings regardless of the reuse mode below).
	sess session
	// reuse, when set, makes gatherings record into the prober-owned
	// recorders below instead of allocating fresh traces, open
	// connections through the recycling dialer, and return the
	// prober-owned res (see Reuse).
	reuse      bool
	recA, recB trace.Recorder
	dialer     websim.Dialer
	res        Result
	// tap, when set, observes every gathering at the wire level (see
	// SetTap); it survives Rearm so a capture can span many gatherings.
	tap Tap
}

// New returns a prober for the given network condition.
func New(cfg Config, cond netem.Condition, rng *rand.Rand) *Prober {
	return &Prober{cfg: cfg.Resolved(), cond: cond, rng: rng}
}

// Reuse opts the prober into buffer reuse: each environment records into a
// prober-owned trace whose window buffers are recycled across gatherings,
// connections are opened through a recycling dialer (one sender renewed in
// place, congestion avoidance components cached per algorithm and rewound
// with Reset), and Gather returns a prober-owned Result. Everything Gather
// and GatherEnv return then stays valid only until the prober's next
// gathering — the contract the identification hot path relies on for zero
// steady-state allocations. Leave it off (the default) when gathered
// traces or results must outlive the next probe.
func (p *Prober) Reuse() { p.reuse = true }

// Rearm re-points the prober at a new configuration, network condition,
// and RNG and rewinds its wall clock, exactly as if freshly created with
// New — but keeps the session scratch and (in Reuse mode) the trace
// buffers. It lets one prober serve a stream of independent identification
// jobs with results identical to a fresh prober per job.
func (p *Prober) Rearm(cfg Config, cond netem.Condition, rng *rand.Rand) {
	p.cfg = cfg.Resolved()
	p.cond = cond
	p.rng = rng
	p.clock = 0
}

// newTrace returns the trace a gathering records into: recycled recorder
// storage in Reuse mode, a fresh allocation otherwise.
func (p *Prober) newTrace(env string, wmax, mss int) *trace.Trace {
	if !p.reuse {
		return &trace.Trace{Env: env, WmaxThreshold: wmax, MSS: mss}
	}
	if env == "B" {
		return p.recB.Reset(env, wmax, mss)
	}
	return p.recA.Reset(env, wmax, mss)
}

// negotiateMSS walks the MSS ladder until the server accepts.
func (p *Prober) negotiateMSS(server *websim.Server) (int, bool) {
	for _, mss := range p.cfg.MSSLadder {
		if server.AcceptsMSS(mss) {
			return mss, true
		}
	}
	return 0, false
}

// findPage models the Web-page searching tool (httrack + dig + header
// probing, Section IV-E): it locates the server's longest page with high
// probability, falling back to the default page.
func (p *Prober) findPage(server *websim.Server) int64 {
	page := server.DefaultPageBytes
	if p.cfg.DisablePageSearch {
		return page
	}
	if server.LongestPageBytes > page && p.rng.Float64() < p.cfg.PageSearchSuccess {
		page = server.LongestPageBytes
	}
	return page
}

// GatherEnv gathers a single trace from server in env with explicit wmax
// and mss, using page bytes of data per request. It is the building block
// Fig. 3 uses directly.
func (p *Prober) GatherEnv(server *websim.Server, env Environment, wmax, mss int, pageBytes int64) (*trace.Trace, error) {
	var sender *tcpsim.Sender
	var err error
	if p.reuse {
		sender, err = p.dialer.Open(server, mss, p.cfg.Requests, pageBytes, p.clock)
	} else {
		sender, err = server.Open(mss, p.cfg.Requests, pageBytes, p.clock)
	}
	if err != nil {
		return nil, err
	}
	t := p.newTrace(env.Name, wmax, mss)
	p.path.Reset(p.cond)
	if p.tap != nil {
		p.tap.Connect(p.clock, env, wmax, mss)
	}
	p.clock = p.sess.run(sender, t, sessionParams{
		env:          env,
		wmax:         wmax,
		mss:          mss,
		path:         &p.path,
		rng:          p.rng,
		maxPreRounds: p.cfg.MaxPreRounds,
		postRounds:   p.cfg.PostRounds,
		dupAck:       !p.cfg.DisableDupAck,
		start:        p.clock,
		tap:          p.tap,
	})
	if p.tap != nil {
		p.tap.Close(p.clock)
	}
	server.Close(sender, p.clock)
	return t, nil
}

// Gather walks the wmax ladder, gathering environment A and B traces, and
// returns the first valid pair. In Reuse mode the returned Result is
// prober-owned and valid only until the next Gather.
func (p *Prober) Gather(server *websim.Server) *Result {
	mss, ok := p.negotiateMSS(server)
	if !ok {
		return p.result(Result{Reason: ReasonMSSRejected})
	}
	page := p.findPage(server)
	reason := ReasonInsufficientData
	for _, wmax := range p.cfg.WmaxLadder {
		ta, err := p.GatherEnv(server, EnvA(), wmax, mss, page)
		if err != nil {
			return p.result(Result{Reason: ReasonMSSRejected, MSS: mss})
		}
		if !ta.Valid() {
			reason = invalidReason(ta)
			continue
		}
		p.clock += p.cfg.InterEnvWait
		tb, err := p.GatherEnv(server, EnvB(), wmax, mss, page)
		if err != nil {
			return p.result(Result{Reason: ReasonMSSRejected, MSS: mss})
		}
		if tb.TimedOut && !tb.Valid() {
			reason = invalidReason(tb)
			continue
		}
		return p.result(Result{
			TraceA:    ta,
			TraceB:    tb,
			Wmax:      wmax,
			MSS:       mss,
			PageBytes: page,
			Valid:     true,
		})
	}
	return p.result(Result{MSS: mss, PageBytes: page, Reason: reason})
}

// result returns r as a pointer: a fresh allocation normally, the recycled
// prober-owned Result in Reuse mode.
func (p *Prober) result(r Result) *Result {
	if !p.reuse {
		out := r
		return &out
	}
	p.res = r
	return &p.res
}

// invalidReason maps a failed trace to its census bucket.
func invalidReason(t *trace.Trace) InvalidReason {
	switch {
	case t.DataExhausted:
		return ReasonInsufficientData
	case !t.TimedOut:
		return ReasonNoTimeout
	default:
		return ReasonNoResponse
	}
}
