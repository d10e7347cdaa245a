package tbit

import (
	"math"
	"testing"

	"repro/internal/tcpsim"
	"repro/internal/websim"
)

func TestInitialWindow(t *testing.T) {
	tests := []struct {
		mss  int
		iw   float64
		want int
	}{
		{536, 0, 4},  // RFC 3390 default for 536
		{1460, 0, 3}, // RFC 3390 default for 1460
		{536, 10, 10},
		{536, 2, 2},
	}
	for _, tc := range tests {
		server := websim.Testbed("RENO")
		server.InitialWindow = tc.iw
		got, err := new(Prober).InitialWindow(server, tc.mss)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("mss=%d iw=%v: IW = %d, want %d", tc.mss, tc.iw, got, tc.want)
		}
	}
}

// recoveryServer builds a testbed server with the given recovery scheme.
func recoveryServer(scheme tcpsim.RecoveryScheme, burstiness bool) *websim.Server {
	s := websim.Testbed("RENO")
	s.Recovery = scheme
	s.BurstinessControl = burstiness
	return s
}

func TestLossRecoveryClassification(t *testing.T) {
	tests := []struct {
		scheme tcpsim.RecoveryScheme
		want   string
	}{
		{tcpsim.RecoveryNewReno, "NEWRENO"},
		{tcpsim.RecoveryReno, "RENO"},
		{tcpsim.RecoveryTahoe, "TAHOE"},
	}
	for _, tc := range tests {
		t.Run(tc.want, func(t *testing.T) {
			got, err := new(Prober).LossRecovery(recoveryServer(tc.scheme, false), 536)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("classified as %s, want %s", got, tc.want)
			}
		})
	}
}

func TestMultiplicativeDecreaseWithoutBurstinessControl(t *testing.T) {
	// A RENO server without cwnd moderation: the post-loss-event window
	// is ~half the pre-loss window, so a loss event *would* measure beta
	// accurately.
	beta, err := new(Prober).MultiplicativeDecrease(recoveryServer(tcpsim.RecoveryNewReno, false), 536)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta-0.5) > 0.15 {
		t.Fatalf("beta via loss event = %v, want ~0.5", beta)
	}
}

func TestMultiplicativeDecreaseWithBurstinessControl(t *testing.T) {
	// With Linux burstiness control the window right after the loss
	// event is clamped to in-flight + 3 packets, far below beta*w: the
	// paper's Section IV-B argument for emulating timeouts instead of
	// loss events.
	beta, err := new(Prober).MultiplicativeDecrease(recoveryServer(tcpsim.RecoveryNewReno, true), 536)
	if err != nil {
		t.Fatal(err)
	}
	if beta > 0.4 {
		t.Fatalf("beta via loss event = %v; burstiness control should crush it", beta)
	}
}

func TestLossRecoveryRejectsTinyWindows(t *testing.T) {
	server := recoveryServer(tcpsim.RecoveryNewReno, false)
	server.SendBufferSegments = 4 // window can never reach the target
	if _, err := new(Prober).LossRecovery(server, 536); err == nil {
		t.Fatal("expected an error for a window that cannot grow")
	}
}

func TestInitialWindowErrorsOnRejectedMSS(t *testing.T) {
	server := websim.Testbed("RENO")
	server.MinMSS = 1460
	if _, err := new(Prober).InitialWindow(server, 100); err == nil {
		t.Fatal("expected an MSS rejection error")
	}
}

func TestRecoverySchemeStrings(t *testing.T) {
	if tcpsim.RecoveryNewReno.String() != "NEWRENO" ||
		tcpsim.RecoveryReno.String() != "RENO" ||
		tcpsim.RecoveryTahoe.String() != "TAHOE" {
		t.Fatal("scheme names wrong")
	}
	if tcpsim.RecoveryScheme(42).String() != "UNKNOWN" {
		t.Fatal("unknown scheme must render")
	}
}

// TestMultiplicativeDecreaseAcrossAlgorithms: the loss-event beta tracks
// each algorithm's Ssthresh when burstiness control is off.
func TestMultiplicativeDecreaseAcrossAlgorithms(t *testing.T) {
	tests := []struct {
		alg  string
		want float64
	}{
		{"RENO", 0.5},
		{"STCP", 0.875},
	}
	for _, tc := range tests {
		server := websim.Testbed(tc.alg)
		beta, err := new(Prober).MultiplicativeDecrease(server, 536)
		if err != nil {
			t.Fatalf("%s: %v", tc.alg, err)
		}
		if math.Abs(beta-tc.want) > 0.2 {
			t.Errorf("%s: beta = %v, want ~%v", tc.alg, beta, tc.want)
		}
	}
}
