package flow

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/trace"
)

// validPairTrace is a valid timed-out trace: the shape that waits for an
// environment-B companion.
var validPairTrace = &trace.Trace{
	Pre: []int{2, 4, 8}, Post: make([]int, trace.ValidPostRounds), TimedOut: true,
}

func init() { validPairTrace.Post[1] = 1 }

// pairFlow builds one flow for the pairing tests: client host c, port
// port, to server host s, starting ms milliseconds into the capture.
// kind 0 carries no data, 1 an invalid (no-timeout) trace, 2 a valid
// timed-out trace.
func pairFlow(c byte, port uint16, s byte, ms int64, kind int) *FlowTrace {
	f := &FlowTrace{
		Client:   fmt.Sprintf("10.0.0.%d:%d", c, port),
		ClientIP: fmt.Sprintf("10.0.0.%d", c),
		Server:   fmt.Sprintf("192.168.0.%d:80", s),
		Start:    time.Unix(1700000000, 0).Add(time.Duration(ms) * time.Millisecond).UTC(),
	}
	switch kind {
	case 1:
		f.Trace = &trace.Trace{Pre: []int{2, 4}}
	case 2:
		f.Trace = validPairTrace
	}
	return f
}

// referencePair is the group-and-sort pairing rule Pair implemented
// before it ran on the stream's pairer: group flows by (client IP,
// server), pair each valid trace with the next flow of its group, then
// restore capture order with a stable sort. Pair must match it pair for
// pair, order included.
func referencePair(flows []*FlowTrace) []FlowIdentification {
	groups := map[string][]*FlowTrace{}
	var order []string
	for _, f := range flows {
		gk := f.ClientIP + "|" + f.Server
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], f)
	}
	sort.Strings(order)
	var out []FlowIdentification
	for _, gk := range order {
		fs := groups[gk]
		for i := 0; i < len(fs); i++ {
			f := fs[i]
			if f.Trace != nil && f.Trace.Valid() && i+1 < len(fs) {
				out = append(out, FlowIdentification{A: f, B: fs[i+1]})
				i++
				continue
			}
			out = append(out, FlowIdentification{A: f})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return flowLess(out[i].A, out[j].A) })
	return out
}

// pairIndexes renders pairs as (A, B) input indexes, -1 for no B.
func pairIndexes(flows []*FlowTrace, pairs []FlowIdentification) [][2]int {
	at := map[*FlowTrace]int{nil: -1}
	for i, f := range flows {
		at[f] = i
	}
	out := make([][2]int, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int{at[p.A], at[p.B]}
	}
	return out
}

// TestPairTable pins the pairing rule case by case.
func TestPairTable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flows []*FlowTrace
		want  [][2]int
	}{
		{
			name: "interleaved client/server groups",
			flows: []*FlowTrace{
				pairFlow(1, 4000, 1, 0, 2), pairFlow(2, 4000, 1, 1, 2),
				pairFlow(1, 4001, 2, 2, 2), pairFlow(1, 4002, 1, 3, 1),
				pairFlow(2, 4001, 1, 4, 0), pairFlow(1, 4003, 2, 5, 0),
			},
			want: [][2]int{{0, 3}, {1, 4}, {2, 5}},
		},
		{
			name: "invalid first flow",
			flows: []*FlowTrace{
				pairFlow(1, 4000, 1, 0, 1), pairFlow(1, 4001, 1, 1, 2), pairFlow(1, 4002, 1, 2, 2),
			},
			want: [][2]int{{0, -1}, {1, 2}},
		},
		{
			name:  "valid A then invalid B still pairs",
			flows: []*FlowTrace{pairFlow(1, 4000, 1, 0, 2), pairFlow(1, 4001, 1, 1, 0)},
			want:  [][2]int{{0, 1}},
		},
		{
			name: "three valid flows in a row",
			flows: []*FlowTrace{
				pairFlow(1, 4000, 1, 0, 2), pairFlow(1, 4001, 1, 1, 2), pairFlow(1, 4002, 1, 2, 2),
			},
			want: [][2]int{{0, 1}, {2, -1}},
		},
		{
			// Equal starts order by server, then client; flows equal on
			// all three keep their input order.
			name: "start ties",
			flows: []*FlowTrace{
				pairFlow(2, 4000, 1, 0, 2), pairFlow(1, 4000, 2, 0, 1),
				pairFlow(1, 4000, 1, 0, 2), pairFlow(1, 4000, 1, 0, 2),
				pairFlow(1, 4000, 1, 0, 1), pairFlow(2, 4000, 1, 0, 0),
			},
			want: [][2]int{{2, 3}, {4, -1}, {0, 5}, {1, -1}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := pairIndexes(tc.flows, Pair(tc.flows))
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("pairs %v, want %v", got, tc.want)
			}
			if ref := pairIndexes(tc.flows, referencePair(tc.flows)); fmt.Sprint(ref) != fmt.Sprint(tc.want) {
				t.Fatalf("reference pairs %v, want %v", ref, tc.want)
			}
		})
	}
}

// TestPairerEvictsOldest pins the bounded pending set a stream runs:
// past max waiting flows the oldest leaves unpaired, a companion unlinks
// its flow from the middle of the FIFO, and flush releases the rest
// oldest first.
func TestPairerEvictsOldest(t *testing.T) {
	flows := []*FlowTrace{
		worstCaseFlow(1, 0), worstCaseFlow(2, 1), worstCaseFlow(3, 2),
		worstCaseFlow(2, 3), worstCaseFlow(4, 4), worstCaseFlow(5, 5),
	}
	var got [][2]int
	p := pairer{pending: map[string]pendingFlow{}, max: 3, onPair: func(fi FlowIdentification, a int) {
		got = append(got, pairIndexes(flows, []FlowIdentification{fi})[0])
		if got[len(got)-1][0] != a {
			t.Fatalf("pair %v reported A index %d", got[len(got)-1], a)
		}
	}}
	for _, f := range flows {
		p.add(f)
	}
	p.flush()
	if want := [][2]int{{1, 3}, {0, -1}, {2, -1}, {4, -1}, {5, -1}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pairs %v, want %v", got, want)
	}
}

// FuzzPairMatchesReference: whatever flow mix, group layout, start ties
// and input order the bytes pick, Pair must equal the group-and-sort
// reference pair for pair.
func FuzzPairMatchesReference(f *testing.F) {
	f.Add([]byte{0x12, 0x00, 0x25, 0x01, 0x10, 0x02})
	f.Add([]byte{0x20, 0x00, 0x20, 0x00, 0x20, 0x00, 0x10, 0x00})
	f.Add([]byte{0xff, 0x07, 0x3c, 0x03, 0x81, 0x05, 0x2a, 0x00, 0x2a, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Two bytes per flow: client host, port, server and kind from
		// the first, a start in [0, 8) ms from the second, so ties and
		// out-of-order starts are common.
		var flows []*FlowTrace
		for i := 0; i+1 < len(data); i += 2 {
			b := data[i]
			flows = append(flows, pairFlow(1+b&1, 4000+uint16(b>>1&3), 1+b>>3&1, int64(data[i+1]&7), int(b>>4)%3))
		}
		got := pairIndexes(flows, Pair(flows))
		want := pairIndexes(flows, referencePair(flows))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pairs %v, reference %v", got, want)
		}
	})
}

// worstCasePairFlows is the adversarial arrival order for a pending
// set: n valid flows in n/2 distinct groups, every group's A flow first,
// then the B flows in reverse order, so each companion matches the
// newest pending flow.
func worstCasePairFlows(n int) []*FlowTrace {
	flows := make([]*FlowTrace, 0, n)
	for g := 0; g < n/2; g++ {
		flows = append(flows, worstCaseFlow(g, int64(g)))
	}
	for g := n/2 - 1; g >= 0; g-- {
		flows = append(flows, worstCaseFlow(g, int64(n-g)))
	}
	return flows
}

// worstCaseFlow is group g's valid flow starting ms into the capture.
func worstCaseFlow(g int, ms int64) *FlowTrace {
	f := pairFlow(0, 4000, 1, ms, 2)
	f.ClientIP = fmt.Sprintf("10.%d.%d.%d", g>>16&0xff, g>>8&0xff, g&0xff)
	f.Client = f.ClientIP + ":4000"
	return f
}

// TestPairWorstCaseOrder: every flow of the adversarial order pairs with
// its own group's companion.
func TestPairWorstCaseOrder(t *testing.T) {
	const n = 1 << 16
	flows := worstCasePairFlows(n)
	pairs := Pair(flows)
	if len(pairs) != n/2 {
		t.Fatalf("%d pairs from %d flows in %d groups", len(pairs), n, n/2)
	}
	for i, p := range pairs {
		if p.A != flows[i] || p.B == nil || p.B.ClientIP != p.A.ClientIP {
			t.Fatalf("pair %d: A %v B %v", i, p.A, p.B)
		}
	}
}

// BenchmarkPair times Pair on the adversarial order; ns/flow stays flat
// as the pending set grows when pairing is linear.
func BenchmarkPair(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		flows := worstCasePairFlows(n)
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Pair(flows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(flows)), "ns/flow")
		})
	}
}
