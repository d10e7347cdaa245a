// Package netem models the Internet path between a CAAI prober and a Web
// server the way the paper does: a network condition is reduced to a mean
// RTT, an RTT standard deviation, and a packet-loss rate, and conditions
// are drawn from empirical distributions measured against 5000 popular Web
// servers (the paper's Figs. 4, 10, and 11). The paper replays such
// conditions with NetEm on its testbed; we replay them directly in the
// round-driven simulation.
package netem

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/stats"
)

// Condition is one sampled network condition between the prober and a
// server. The paper's three dimensions (mean RTT, RTT standard deviation,
// uniform loss) cover its testbed emulation; the additional knobs below
// extend the model to the hostile conditions the evaluation matrix
// (internal/eval) sweeps: packet reordering, duplication, and bursty loss
// under a two-state Gilbert–Elliott channel. All extra knobs default to
// zero (off), and a condition with none of them set behaves — draw for
// draw on the RNG — exactly as before they existed.
type Condition struct {
	// MeanRTT is the average round-trip time of the real path. The
	// emulated environments require it to be below the emulated RTT.
	MeanRTT time.Duration
	// RTTStdDev is the standard deviation of the path RTT; it jitters
	// the RTT samples the server observes around the emulated value.
	RTTStdDev time.Duration
	// LossRate is the probability that any single packet (data or ACK)
	// is lost on the path, in [0, 1]. Ignored while a Gilbert–Elliott
	// burst-loss model is configured (GEBadLoss > 0).
	LossRate float64

	// ReorderRate is the probability that a data packet is overtaken by
	// its successor (NetEm-style adjacent swap), in [0, 1].
	ReorderRate float64
	// DupRate is the probability that a data packet arrives twice, each
	// copy acknowledged, in [0, 1].
	DupRate float64

	// Gilbert–Elliott burst loss: the path alternates between a good and
	// a bad state with per-packet transition probabilities GEPGoodBad and
	// GEPBadGood; packets drop with probability GEGoodLoss in the good
	// state and GEBadLoss in the bad state. The model is active when
	// GEBadLoss > 0, and then replaces the uniform LossRate. Per-path
	// state lives in a Path (see NewPath); Condition itself stays
	// immutable and safe to share.
	GEPGoodBad float64
	GEPBadGood float64
	GEGoodLoss float64
	GEBadLoss  float64
}

// String renders the condition compactly.
func (c Condition) String() string {
	s := fmt.Sprintf("rtt=%v±%v loss=%.2f%%", c.MeanRTT, c.RTTStdDev, c.LossRate*100)
	if c.ReorderRate > 0 {
		s += fmt.Sprintf(" reorder=%.1f%%", c.ReorderRate*100)
	}
	if c.DupRate > 0 {
		s += fmt.Sprintf(" dup=%.1f%%", c.DupRate*100)
	}
	if c.GEBadLoss > 0 {
		s += fmt.Sprintf(" ge=[%.2f%%/%.2f%% p=%.2f/%.2f]",
			c.GEGoodLoss*100, c.GEBadLoss*100, c.GEPGoodBad, c.GEPBadGood)
	}
	return s
}

// Impaired reports whether any of the extended impairments (reordering,
// duplication, burst loss) is active. The probe session uses it to keep
// the original, bit-stable fast path for plain conditions.
func (c Condition) Impaired() bool {
	return c.ReorderRate > 0 || c.DupRate > 0 || c.GEBadLoss > 0
}

// Lossless is the ideal testbed condition used for Fig. 3.
var Lossless = Condition{MeanRTT: 50 * time.Millisecond}

// Database holds the three empirical distributions a condition is drawn
// from. It is immutable and safe for concurrent use.
type Database struct {
	rtt    *stats.ECDF // seconds
	stddev *stats.ECDF // seconds
	loss   *stats.ECDF // fraction
}

// NewDatabase builds a condition database from the three distributions.
func NewDatabase(rtt, stddev, loss *stats.ECDF) *Database {
	return &Database{rtt: rtt, stddev: stddev, loss: loss}
}

// MeasuredDatabase returns the condition database digitised from the
// paper's measurements of 5000 popular Web servers (2010-2011): Fig. 4
// (mean RTT: almost all below 0.8 s), Fig. 10 (RTT standard deviation), and
// Fig. 11 (packet-loss rates from PCAP traces).
func MeasuredDatabase() *Database {
	rtt := stats.MustECDF([]stats.Anchor{
		{Value: 0.005, Cum: 0},
		{Value: 0.020, Cum: 0.10},
		{Value: 0.050, Cum: 0.30},
		{Value: 0.100, Cum: 0.55},
		{Value: 0.200, Cum: 0.80},
		{Value: 0.300, Cum: 0.90},
		{Value: 0.500, Cum: 0.97},
		{Value: 0.800, Cum: 0.995},
		{Value: 1.500, Cum: 1},
	})
	stddev := stats.MustECDF([]stats.Anchor{
		{Value: 0.0005, Cum: 0},
		{Value: 0.002, Cum: 0.30},
		{Value: 0.005, Cum: 0.50},
		{Value: 0.010, Cum: 0.65},
		{Value: 0.020, Cum: 0.80},
		{Value: 0.040, Cum: 0.90},
		{Value: 0.080, Cum: 0.97},
		{Value: 0.200, Cum: 1},
	})
	loss := stats.MustECDF([]stats.Anchor{
		{Value: 0.000, Cum: 0.35},
		{Value: 0.001, Cum: 0.50},
		{Value: 0.005, Cum: 0.65},
		{Value: 0.010, Cum: 0.75},
		{Value: 0.030, Cum: 0.85},
		{Value: 0.050, Cum: 0.90},
		{Value: 0.100, Cum: 0.95},
		{Value: 0.200, Cum: 0.98},
		{Value: 0.300, Cum: 1},
	})
	return NewDatabase(rtt, stddev, loss)
}

// Sample draws one condition (independent draws per dimension, as the
// paper's testbed emulation does).
func (db *Database) Sample(rng *rand.Rand) Condition {
	return Condition{
		MeanRTT:   time.Duration(db.rtt.Sample(rng) * float64(time.Second)),
		RTTStdDev: time.Duration(db.stddev.Sample(rng) * float64(time.Second)),
		LossRate:  db.loss.Sample(rng),
	}
}

// RTTCDF exposes the mean-RTT distribution (Fig. 4).
func (db *Database) RTTCDF() *stats.ECDF { return db.rtt }

// StdDevCDF exposes the RTT standard deviation distribution (Fig. 10).
func (db *Database) StdDevCDF() *stats.ECDF { return db.stddev }

// LossCDF exposes the packet-loss distribution (Fig. 11).
func (db *Database) LossCDF() *stats.ECDF { return db.loss }

// Jitter returns a normally distributed RTT perturbation for one emulated
// round, clamped so the perturbed RTT never drops below half the emulated
// value (ACK deferral can stretch but not reverse time).
func (c Condition) Jitter(rng *rand.Rand, emulated time.Duration) time.Duration {
	if c.RTTStdDev <= 0 {
		return 0
	}
	j := time.Duration(rng.NormFloat64() * float64(c.RTTStdDev))
	if j < -emulated/2 {
		j = -emulated / 2
	}
	return j
}

// Drop reports whether a single packet is lost under this condition's
// uniform loss model. Burst-losing paths must go through a Path, which
// carries the Gilbert–Elliott channel state.
func (c Condition) Drop(rng *rand.Rand) bool {
	return c.LossRate > 0 && rng.Float64() < c.LossRate
}

// Path is the stateful view of a Condition for one connection: it carries
// the Gilbert–Elliott channel state that Condition, being an immutable
// shared value, cannot. A zero Path never drops; call Reset before a
// gathering (the prober resets its Path per connection). Not safe for
// concurrent use.
type Path struct {
	cond Condition
	// loss and ge are cached from cond by Reset so Drop, which runs on
	// every data segment and ACK, reads two words instead of going
	// through a Condition value.
	loss float64 // cond.LossRate
	ge   bool    // cond.GEBadLoss > 0: the Gilbert–Elliott model is active
	bad  bool    // current Gilbert–Elliott channel state
}

// NewPath returns a path over cond, starting in the good state.
func NewPath(cond Condition) *Path {
	p := new(Path)
	p.Reset(cond)
	return p
}

// Reset re-points the path at cond and returns the channel to the good
// state, as a fresh connection would see it.
func (p *Path) Reset(cond Condition) {
	*p = Path{cond: cond, loss: cond.LossRate, ge: cond.GEBadLoss > 0}
}

// Cond returns the condition the path is replaying.
func (p *Path) Cond() Condition { return p.cond }

// Drop reports whether a single packet is lost. With a Gilbert–Elliott
// model configured it first advances the channel state (one draw), then
// draws the state's loss rate; otherwise it is exactly Condition.Drop —
// same draws, same outcomes.
func (p *Path) Drop(rng *rand.Rand) bool {
	if p.ge {
		return p.dropGE(rng)
	}
	return p.loss > 0 && rng.Float64() < p.loss
}

// dropGE is Drop under the Gilbert–Elliott model, kept out of line so the
// uniform-loss path stays a compare and at most one draw.
func (p *Path) dropGE(rng *rand.Rand) bool {
	c := &p.cond
	if p.bad {
		if c.GEPBadGood > 0 && rng.Float64() < c.GEPBadGood {
			p.bad = false
		}
	} else {
		if c.GEPGoodBad > 0 && rng.Float64() < c.GEPGoodBad {
			p.bad = true
		}
	}
	loss := c.GEGoodLoss
	if p.bad {
		loss = c.GEBadLoss
	}
	return loss > 0 && rng.Float64() < loss
}

// Dup reports whether a data packet is duplicated. It draws from rng only
// when duplication is configured, so plain conditions keep their streams.
func (p *Path) Dup(rng *rand.Rand) bool {
	return p.cond.DupRate > 0 && rng.Float64() < p.cond.DupRate
}

// Reorder reports whether a data packet is overtaken by its successor. It
// draws from rng only when reordering is configured.
func (p *Path) Reorder(rng *rand.Rand) bool {
	return p.cond.ReorderRate > 0 && rng.Float64() < p.cond.ReorderRate
}
