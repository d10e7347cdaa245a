package core

import (
	"math/rand"
	"testing"

	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/websim"
)

// TestSessionIdentifyAllocatesNothing pins the hot-path contract the bench
// budget enforces machine-side: after warm-up, a Session.Identify with span
// recording enabled and a live telemetry pipeline attached performs zero
// heap allocations per identification -- the prober recycles its traces,
// sender, and congestion avoidance components, the classify input goes
// through the session-owned buffer, and the span clock and histograms are
// plain values and atomics. The untimed session is held to the same zero,
// so recording provably adds nothing. A third session additionally binds a
// live flight recorder, pinning the tracing path (StageSpans into the
// preallocated rings, the UNSURE event probe) to the same zero.
func TestSessionIdentifyAllocatesNothing(t *testing.T) {
	id := NewIdentifier(stubClassifier{})
	server := websim.Testbed("CUBIC2")

	var tel telemetry.Pipeline
	timed := id.NewSession()
	timed.EnableTimings(&tel)
	plain := id.NewSession()

	flight := telemetry.NewFlight(telemetry.FlightConfig{SampleN: 1})
	traced := id.NewSession()
	traced.EnableTimings(&tel)
	traced.BindTrace(flight, flight.Mint())

	for name, sess := range map[string]*Session{"recording": timed, "untimed": plain, "traced": traced} {
		rng := rand.New(rand.NewSource(7))
		sess.Identify(server, netem.Lossless, probe.Config{}, rng) // warm buffers
		var out Identification
		avg := testing.AllocsPerRun(20, func() {
			out = sess.Identify(server, netem.Lossless, probe.Config{}, rng)
		})
		if !out.Valid {
			t.Fatalf("%s session: warm identify came back invalid: %+v", name, out)
		}
		if avg != 0 {
			t.Errorf("%s session: Identify allocates %.1f objects/op after warm-up, want 0", name, avg)
		}
	}

	stamped := timed.Identify(server, netem.Lossless, probe.Config{}, rand.New(rand.NewSource(8)))
	if stamped.Timings.Total() == 0 {
		t.Error("recording session stamped no Timings; the zero-allocation claim would be vacuous")
	}
}
