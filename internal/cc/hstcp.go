package cc

import (
	"math"
	"time"
)

// HSTCP parameters from RFC 3649 (HighSpeed TCP for Large Congestion
// Windows).
const (
	hstcpLowWindow  = 38.0
	hstcpHighWindow = 83000.0
	hstcpLowB       = 0.5
	hstcpHighB      = 0.1
)

// HSTCP is HighSpeed TCP (Floyd, RFC 3649; Linux tcp_highspeed.c): the
// additive increase a(w) and multiplicative decrease b(w) scale with the
// current window so large windows recover quickly. For windows at or below
// 38 packets HSTCP is exactly RENO.
type HSTCP struct{}

var _ Algorithm = (*HSTCP)(nil)

// NewHSTCP returns an HSTCP congestion avoidance component.
func NewHSTCP() *HSTCP { return &HSTCP{} }

// Name implements Algorithm.
func (*HSTCP) Name() string { return "HSTCP" }

// Reset implements Algorithm.
func (*HSTCP) Reset(*Conn) {}

// hstcpLogLow and hstcpLogSpan are the constant logarithms of a(w) and
// b(w)'s log-linear interpolation, evaluated once instead of per ACK.
var (
	hstcpLogLow  = math.Log(hstcpLowWindow)
	hstcpLogSpan = math.Log(hstcpHighWindow) - math.Log(hstcpLowWindow)
)

// hstcpPowFrac is the fractional part of the response function's exponent
// as math.Pow splits it (math.Modf): float64(1.2)-1 = 0.19999999999999996,
// not the constant 0.2.
var _, hstcpPowFrac = math.Modf(1.2)

// hstcpAB returns RFC 3649's a(w) (packets added per RTT) and b(w)
// (fraction of the window shed on loss). The kernel's hstcp_aimd_vals table
// is generated from exactly these closed forms; we evaluate them directly.
//
// HSTCP runs this on every ACK, so it takes one logarithm: log(w) serves
// both the interpolation and w^1.2, which is computed with math.Pow's own
// steps for an exponent with integer part 1 -- exp(frac*log w) times w's
// mantissa, scaled by w's binary exponent -- so the result is bit-equal to
// math.Pow(w, 1.2) (TestHSTCPMatchesClosedForm pins both).
func hstcpAB(w float64) (a, b float64) {
	if w <= hstcpLowWindow {
		return 1, hstcpLowB
	}
	lw := math.Log(w)
	b = hstcpLowB + (hstcpHighB-hstcpLowB)*((lw-hstcpLogLow)/hstcpLogSpan)
	// RFC 3649 response function: p(w) = 0.078/w^1.2, and
	// a(w) = w^2 * p(w) * 2*b(w) / (2 - b(w)).
	p := 0.078 / hstcpPow12(w, lw)
	a = w * w * p * 2 * b / (2 - b)
	if a < 1 {
		a = 1
	}
	return a, b
}

// hstcpPow12 returns w^1.2 given lw = math.Log(w), for finite w > 1.
func hstcpPow12(w, lw float64) float64 {
	frac, exp := math.Frexp(w)
	return math.Ldexp(math.Exp(hstcpPowFrac*lw)*frac, exp)
}

// OnAck implements Algorithm: slow start, then a(w) packets per RTT.
func (*HSTCP) OnAck(c *Conn, _ int, _ time.Duration) {
	if slowStart(c) {
		return
	}
	a, _ := hstcpAB(c.Cwnd)
	aiIncrease(c, c.Cwnd/a)
}

// Ssthresh implements Algorithm: w*(1 - b(w)), so the paper's beta lies
// between 0.5 (small windows) and 0.9 (huge windows).
func (*HSTCP) Ssthresh(c *Conn) float64 {
	_, b := hstcpAB(c.Cwnd)
	return clampSsthresh(c.Cwnd * (1 - b))
}

// OnTimeout implements Algorithm.
func (*HSTCP) OnTimeout(*Conn) {}
