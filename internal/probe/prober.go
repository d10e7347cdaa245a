package probe

import (
	"math/rand"
	"time"

	"repro/internal/netem"
	"repro/internal/trace"
	"repro/internal/websim"
)

// Paper is the probe budget of Section IV of the paper: a four-rung wmax
// ladder tried in decreasing order (traces above 512 are hard to obtain,
// traces below 64 are almost useless), 12 pipelined requests and up to 40
// pre-timeout rounds. Model files that record no budget were trained at
// it.
var Paper = Config{WmaxLadder: []int{512, 256, 128, 64}, Requests: 12, MaxPreRounds: 40}

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

// mssLadder is tried in increasing order: the smaller the MSS, the higher
// the achievable window.
var mssLadder = []int{100, 300, 536, 1460}

const (
	// postRounds is the required post-timeout rounds.
	postRounds = trace.ValidPostRounds
	// pageSearchSuccess is the probability the page-searching tool finds
	// the server's longest page.
	pageSearchSuccess = 0.95
)

// Config tunes a Prober. Zero fields resolve to the lean served budget
// (see Resolved); Paper is the paper's budget.
type Config struct {
	// WmaxLadder is tried in decreasing order (default 256, 128, 64).
	WmaxLadder []int
	// Requests is how many pipelined HTTP requests CAAI repeats
	// (default 8).
	Requests int
	// MaxPreRounds bounds the pre-timeout gathering (default 20).
	MaxPreRounds int
	// InterEnvWait separates environments A and B so slow start
	// threshold caches expire (default 10 minutes, as in the paper).
	InterEnvWait time.Duration
	// DisableDupAck turns off the F-RTO counter-measure (for the
	// ablation experiment).
	DisableDupAck bool
	// DisablePageSearch skips the long-page search and uses the default
	// page (for the ablation experiment).
	DisablePageSearch bool
}

// Resolved returns c with every zero field replaced by its default: the
// configuration a Prober built from c actually runs.
func (c Config) Resolved() Config {
	if len(c.WmaxLadder) == 0 {
		c.WmaxLadder = leanWmaxLadder
	}
	if c.Requests <= 0 {
		c.Requests = leanRequests
	}
	if c.MaxPreRounds <= 0 {
		c.MaxPreRounds = leanMaxPreRounds
	}
	if c.InterEnvWait <= 0 {
		c.InterEnvWait = 10 * time.Minute
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
//
// A Prober recycles everything a gathering builds: each environment
// records into its own prober-owned trace, connections are opened through
// one Dialer, and Gather returns a prober-owned Result. What a gathering
// returns is therefore valid only until the prober's next gathering (in
// the same environment, for GatherEnv's traces); build one prober per
// gathering whose result must outlive the next. Steady-state gathering
// allocates nothing.
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

	// The recycled gathering state: burst/ACK scratch, the environment A
	// and B traces, the connection dialer and the Result Gather returns.
	sess       session
	recA, recB trace.Recorder
	dialer     websim.Dialer
	res        Result
	// tap, when set, observes every gathering at the wire level (see
	// SetTap); it survives Rearm so a capture can span many gatherings.
	tap Tap
}

// New returns a prober for the given network condition.
func New(cfg Config, cond netem.Condition, rng *rand.Rand) *Prober {
	p := new(Prober)
	p.Rearm(cfg, cond, rng)
	return p
}

// Reuse does nothing: every Prober recycles its buffers (see Prober).
//
// Deprecated: buffer reuse is no longer optional; drop the call.
func (p *Prober) Reuse() {}

// Rearm points the prober at a configuration, network condition and RNG
// and rewinds its wall clock: a zero Prober rearmed is a fresh one, and a
// used one keeps its recycled buffers. It lets one prober serve a stream
// of independent identification jobs with results identical to a fresh
// prober per job.
func (p *Prober) Rearm(cfg Config, cond netem.Condition, rng *rand.Rand) {
	p.cfg = cfg.Resolved()
	p.cond = cond
	p.rng = rng
	p.clock = 0
}

// negotiateMSS walks the MSS ladder until the server accepts.
func (p *Prober) negotiateMSS(server *websim.Server) (int, bool) {
	for _, mss := range mssLadder {
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
	if server.LongestPageBytes > page && p.rng.Float64() < pageSearchSuccess {
		page = server.LongestPageBytes
	}
	return page
}

// GatherEnv gathers a single trace from server in env with explicit wmax
// and mss, using page bytes of data per request. It is the building block
// Fig. 3 uses directly. The trace is valid until the prober's next
// gathering in env.
func (p *Prober) GatherEnv(server *websim.Server, env Environment, wmax, mss int, pageBytes int64) (*trace.Trace, error) {
	sender, err := p.dialer.Open(server, mss, p.cfg.Requests, pageBytes, p.clock)
	if err != nil {
		return nil, err
	}
	rec := &p.recA
	if env.Name == "B" {
		rec = &p.recB
	}
	t := rec.Reset(env.Name, wmax, mss)
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
// returns the first valid pair. The Result is prober-owned and valid only
// until the prober's next gathering.
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

// result stores r in the prober-owned Result and returns it.
func (p *Prober) result(r Result) *Result {
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
