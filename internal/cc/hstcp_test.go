package cc

import (
	"math"
	"math/rand"
	"testing"
)

// hstcpABClosedForm is RFC 3649's a(w) and b(w) written out directly: three
// logarithms and a math.Pow per call. hstcpAB must return the same bits.
func hstcpABClosedForm(w float64) (a, b float64) {
	if w <= hstcpLowWindow {
		return 1, hstcpLowB
	}
	logRatio := (math.Log(w) - math.Log(hstcpLowWindow)) /
		(math.Log(hstcpHighWindow) - math.Log(hstcpLowWindow))
	b = hstcpLowB + (hstcpHighB-hstcpLowB)*logRatio
	p := 0.078 / math.Pow(w, 1.2)
	a = w * w * p * 2 * b / (2 - b)
	if a < 1 {
		a = 1
	}
	return a, b
}

// checkHSTCPBits fails unless hstcpAB(w) is bit-equal to the closed form
// and hstcpPow12 is bit-equal to math.Pow(w, 1.2).
func checkHSTCPBits(t *testing.T, w float64) {
	t.Helper()
	a, b := hstcpAB(w)
	wa, wb := hstcpABClosedForm(w)
	if math.Float64bits(a) != math.Float64bits(wa) || math.Float64bits(b) != math.Float64bits(wb) {
		t.Fatalf("w=%v: hstcpAB = (%v, %v), closed form = (%v, %v)", w, a, b, wa, wb)
	}
	if w > hstcpLowWindow {
		got, want := hstcpPow12(w, math.Log(w)), math.Pow(w, 1.2)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("w=%v: hstcpPow12 = %v, math.Pow(w, 1.2) = %v", w, got, want)
		}
	}
}

// TestHSTCPMatchesClosedForm pins the per-ACK HSTCP arithmetic to the
// closed form bit for bit, at the window thresholds and over 10^7 random
// windows in (38, 10^7] (half uniform, half log-uniform, so every binade
// is hit; 10^5 under -short or -race). hstcpPow12 repeats math.Pow's
// internal steps for an exponent with integer part 1 (Modf, Exp of the
// fraction times Log, Frexp, one mantissa multiply, Ldexp). A Go
// toolchain whose math.Pow takes other steps -- a rewrite of pow.go, or an
// assembly Pow such as s390x's -- can trip this test; the fix is then to
// call math.Pow again, since the closed form, not this shortcut, defines
// the behaviour the golden traces pin.
func TestHSTCPMatchesClosedForm(t *testing.T) {
	for _, w := range []float64{
		1, hstcpLowWindow, math.Nextafter(hstcpLowWindow, math.Inf(1)),
		39, 512, hstcpHighWindow, math.Nextafter(hstcpHighWindow, math.Inf(1)), 1e7,
	} {
		checkHSTCPBits(t, w)
	}
	n := 10_000_000
	if testing.Short() || raceEnabled {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(3649))
	logLow, logHigh := math.Log(hstcpLowWindow), math.Log(1e7)
	for i := 0; i < n; i++ {
		var w float64
		if i%2 == 0 {
			w = 1e7 - rng.Float64()*(1e7-hstcpLowWindow)
		} else {
			w = math.Exp(logLow + rng.Float64()*(logHigh-logLow))
		}
		if w <= hstcpLowWindow || w > 1e7 {
			continue
		}
		checkHSTCPBits(t, w)
	}
}
