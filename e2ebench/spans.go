package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call into a layer during the traced replay. Spans of
// one identification share req; parent indexes the enclosing span (-1 for
// a root).
type span struct {
	name       string
	start, end time.Time
	parent     int
	req        int
}

// recorder keeps replay spans in memory. A disabled recorder turns every
// call into a no-op, so the same replay code measures tracing overhead.
type recorder struct {
	on    bool
	spans []span
}

// begin opens a span and returns its index (or -1 when disabled).
func (r *recorder) begin(name string, parent, req int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: time.Now(), parent: parent, req: req})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if i >= 0 {
		r.spans[i].end = time.Now()
	}
}

// stages records the stages of tm that names gives a span name as
// children of the closed span parent, laid back to back in pipeline order
// so the last ends where parent ended: the library reports how long each
// stage took, and its stages run one after another just before the call
// returns.
func (r *recorder) stages(parent int, tm *telemetry.StageTimings, names map[telemetry.Stage]string) {
	if parent < 0 {
		return
	}
	p := r.spans[parent]
	end := p.end
	for s := telemetry.NumStages - 1; s >= 0; s-- {
		name, d := names[telemetry.Stage(s)], tm[s]
		if name == "" || d <= 0 {
			continue
		}
		r.spans = append(r.spans, span{name: name, start: end.Add(-d), end: end, parent: parent, req: p.req})
		end = end.Add(-d)
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (clipped to the
// parent, so overlapping or overhanging children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end.Sub(s.start) - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals within p.
func covered(p span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].name] += d
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps relative to the first span), which
// Perfetto and chrome://tracing open directly.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].start
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   us(s.start.Sub(t0)),
			Dur:  us(s.end.Sub(s.start)),
			Args: map[string]int{"request": s.req, "parent": s.parent, "span": i},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
