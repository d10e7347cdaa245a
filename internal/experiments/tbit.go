package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/feature"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/tbit"
	"repro/internal/tcpsim"
	"repro/internal/websim"
)

// TimeoutVsLossEvent reproduces the paper's Section IV-B argument for
// emulating a *timeout* instead of a *loss event*: on a Linux-style server
// with burstiness control (cwnd moderation), the window right after a loss
// event is clamped to in-flight + 3 packets, so the multiplicative
// decrease measured through a loss event is far below the true beta, while
// the timeout-based measurement stays accurate.
func TimeoutVsLossEvent(ctx *Context) (string, error) {
	var b strings.Builder
	b.WriteString("Section IV-B: why emulate a timeout instead of a loss event\n")
	fmt.Fprintf(&b, "%-10s %-12s %-22s %-22s\n", "algorithm", "true beta", "beta via loss event", "beta via timeout (CAAI)")
	cases := []struct {
		alg  string
		beta float64
	}{
		{"RENO", 0.5},
		{"STCP", 0.875},
	}
	for _, tc := range cases {
		server := websim.Testbed(tc.alg)
		server.BurstinessControl = true

		var p tbit.Prober
		lossBeta, err := p.MultiplicativeDecrease(server, 536)
		if err != nil {
			return "", err
		}

		// The CAAI way: the timeout-based extraction of this repo.
		vec, ok := gatherVector(ctx, server)
		if !ok {
			return "", fmt.Errorf("timeout gathering failed for %s", tc.alg)
		}
		fmt.Fprintf(&b, "%-10s %-12.3f %-22.3f %-22.3f\n", tc.alg, tc.beta, lossBeta, vec[0])
		if math.Abs(vec[0]-tc.beta) > 0.05 && tc.alg == "RENO" {
			return "", fmt.Errorf("timeout-based beta drifted: %v", vec[0])
		}
	}
	b.WriteString("(burstiness control crushes the loss-event measurement; the timeout one holds)\n")
	return b.String(), nil
}

// TBITSurvey runs the TBIT component probes (initial window, loss
// recovery, multiplicative decrease) over a spread of server stacks: the
// components the paper defers to TBIT.
func TBITSurvey(ctx *Context) (string, error) {
	var b strings.Builder
	b.WriteString("TBIT component survey (the components CAAI defers to TBIT)\n")
	fmt.Fprintf(&b, "%-26s %-4s %-10s %-10s\n", "server", "IW", "recovery", "beta(loss)")
	stacks := []struct {
		name     string
		alg      string
		iw       float64
		recovery tcpsim.RecoveryScheme
	}{
		{"linux-newreno-cubic", "CUBIC2", 0, tcpsim.RecoveryNewReno},
		{"linux-newreno-bic", "BIC", 0, tcpsim.RecoveryNewReno},
		{"classic-reno", "RENO", 2, tcpsim.RecoveryReno},
		{"ancient-tahoe", "RENO", 1, tcpsim.RecoveryTahoe},
		{"iw10-newreno", "RENO", 10, tcpsim.RecoveryNewReno},
	}
	for _, st := range stacks {
		server := websim.Testbed(st.alg)
		server.InitialWindow = st.iw
		server.Recovery = st.recovery

		var p tbit.Prober
		iw, err := p.InitialWindow(server, 536)
		if err != nil {
			return "", err
		}
		rec, err := p.LossRecovery(server, 536)
		if err != nil {
			return "", err
		}
		beta, err := p.MultiplicativeDecrease(server, 536)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-26s %-4d %-10s %-10.3f\n", st.name, iw, rec, beta)
		if rec != st.recovery.String() {
			return "", fmt.Errorf("%s: recovery classified as %s, want %s", st.name, rec, st.recovery)
		}
	}
	return b.String(), nil
}

// gatherVector runs the CAAI gathering + extraction against one server on
// the lossless testbed.
func gatherVector(ctx *Context, server *websim.Server) (feature.Vector, bool) {
	p := probe.New(probe.Config{}, netem.Lossless, ctx.rng(79))
	res := p.Gather(server)
	if !res.Valid {
		return feature.Vector{}, false
	}
	return feature.Extract(res.TraceA, res.TraceB), true
}
