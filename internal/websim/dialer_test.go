package websim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/tcpsim"
)

// dialerServers is one of every kind of server a Dialer opens: a testbed
// server per registered algorithm, a CustomAlgorithm server, a proxy
// whose observed algorithm (BIC) shares the Dialer's cache with the BIC
// testbed, and a server that caches the slow start threshold.
func dialerServers() []*Server {
	var out []*Server
	for _, name := range cc.Names() {
		out = append(out, Testbed(name))
	}
	custom := Testbed("RENO")
	custom.Name = "custom"
	custom.CustomAlgorithm = func() cc.Algorithm { return cc.NewHTCP() }
	proxy := Testbed("CTCP1")
	proxy.Name = "proxy"
	proxy.ProxyAlgorithm = "BIC"
	caching := Testbed("CUBIC2")
	caching.Name = "caching"
	caching.SsthreshCaching = true
	return append(out, custom, proxy, caching)
}

// drive runs one connection from now for up to 40 emulated one-second
// rounds -- a receiver that loses some data segments (so duplicate ACKs
// trigger fast recovery) and some ACKs, and a timeout at round rtoRound
// -- and returns the burst size and congestion window of every round,
// plus the end time.
func drive(snd *tcpsim.Sender, rng *rand.Rand, now time.Duration, rtoRound int) ([]float64, time.Duration) {
	var windows []float64
	next, got := int64(0), map[int64]bool{} // receiver: cumulative point, segments above it
	for r := 1; r <= 40; r++ {
		burst := snd.SendBurst(now)
		windows = append(windows, float64(len(burst)), snd.Conn().Cwnd)
		if len(burst) == 0 && snd.DataExhausted() {
			break
		}
		if len(burst) == 0 || r == rtoRound {
			now += snd.RTO()
			snd.OnRTOExpired(now)
			continue
		}
		snd.BeginRound(int64(r))
		for _, seg := range burst {
			if rng.Float64() < 0.02 {
				continue // data segment lost
			}
			for got[seg.ID] = true; got[next]; next++ {
				delete(got, next)
			}
			if rng.Float64() < 0.05 {
				continue // ACK lost
			}
			snd.DeliverAck(now+time.Second, next, time.Second)
		}
		now += time.Second
	}
	return windows, now
}

// TestDialerMatchesFreshConnections: one Dialer reused across a seeded
// random sequence of connections to every kind of server yields the same
// windows, round for round, as a fresh tcpsim.New(cc.New(...)) per
// connection against an identical copy of the servers.
func TestDialerMatchesFreshConnections(t *testing.T) {
	recycled, fresh := dialerServers(), dialerServers()
	var d Dialer
	rng := rand.New(rand.NewSource(2011))
	dialled := map[string]int{}
	cachedOpens := 0
	var now time.Duration
	for i := 0; i < 300; i++ {
		k := rng.Intn(len(recycled))
		mss := []int{100, 300, 536, 1460}[rng.Intn(4)]
		requests := 1 + rng.Intn(12)
		page := int64(1+rng.Intn(64)) << 10
		rtoRound := 2 + rng.Intn(12)
		seed := rng.Int63()
		now += time.Duration(rng.Intn(120)) * time.Second

		got, err := d.Open(recycled[k], mss, requests, page, now)
		if err != nil {
			t.Fatalf("connection %d to %s: %v", i, recycled[k].Name, err)
		}
		opts, err := fresh[k].connOptions(mss, requests, page, now)
		if err != nil {
			t.Fatal(err)
		}
		if opts.InitialSsthresh > 0 {
			cachedOpens++
		}
		var alg cc.Algorithm
		if fresh[k].CustomAlgorithm != nil {
			alg = fresh[k].CustomAlgorithm()
		} else if alg, err = cc.New(fresh[k].EffectiveAlgorithm()); err != nil {
			t.Fatal(err)
		}
		want := tcpsim.New(alg, opts)

		gotW, gotEnd := drive(got, rand.New(rand.NewSource(seed)), now, rtoRound)
		wantW, wantEnd := drive(want, rand.New(rand.NewSource(seed)), now, rtoRound)
		if !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("connection %d to %s (mss %d, %d requests): windows through a Dialer\n%v\nfresh\n%v",
				i, recycled[k].Name, mss, requests, gotW, wantW)
		}
		recycled[k].Close(got, gotEnd)
		fresh[k].Close(want, wantEnd)
		now = gotEnd
		dialled[recycled[k].Name]++
	}
	for _, s := range recycled {
		if dialled[s.Name] == 0 {
			t.Errorf("the sequence never dialled %s", s.Name)
		}
	}
	if cachedOpens == 0 {
		t.Error("no connection opened with a cached slow start threshold")
	}
}
