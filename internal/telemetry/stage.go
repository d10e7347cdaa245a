package telemetry

import "time"

// Stage enumerates the pipeline stages an identification passes through.
// The active path is queue wait -> gather -> feature -> classify (cache
// is the service-side lookup bracketing it); the passive (pcap) path maps
// decode/reassembly onto StageGather so both pipelines share one
// histogram set and one wire format.
type Stage uint8

// Pipeline stages, in pipeline order.
const (
	// StageQueueWait is time spent waiting for an execution slot: the
	// sync path's probe semaphore, or a batch job's time in the bounded
	// queue.
	StageQueueWait Stage = iota
	// StageGather is trace gathering (active: the emulated probe
	// session; passive: capture decode + flow reassembly).
	StageGather
	// StageFeature is validity checking, special-shape detection, and
	// feature-vector extraction.
	StageFeature
	// StageClassify is model inference: one forest vote per sample.
	StageClassify
	// StageCache is the service's result-cache lookup.
	StageCache
	// NumStages sizes per-stage arrays.
	NumStages int = iota
)

// stageNames are the wire/exposition labels, indexed by Stage.
var stageNames = [NumStages]string{"queue_wait", "gather", "feature", "classify", "cache"}

// String returns the stage's snake_case label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageTimings is one identification's span breakdown: how long each
// stage took, zero for stages that did not run. It is a plain value --
// recording into it never allocates, and copying it through result
// structs is five word moves.
type StageTimings [NumStages]time.Duration

// Total sums the recorded spans.
func (t *StageTimings) Total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}

// Zero reports whether nothing was recorded (no stage span stamped).
func (t *StageTimings) Zero() bool {
	for _, d := range t {
		if d != 0 {
			return false
		}
	}
	return true
}

// Pipeline aggregates stage spans into one latency histogram per stage.
// Safe for concurrent use; the zero value is ready.
type Pipeline struct {
	hists [NumStages]Histogram
}

// Observe records one stage span.
func (p *Pipeline) Observe(s Stage, d time.Duration) {
	p.hists[s].Observe(d)
}

// ObserveTimings records every non-zero span of one identification.
func (p *Pipeline) ObserveTimings(t *StageTimings) {
	for s := range t {
		if t[s] != 0 {
			p.hists[s].Observe(t[s])
		}
	}
}

// Stage exposes one stage's histogram (for snapshots and exposition).
func (p *Pipeline) Stage(s Stage) *Histogram { return &p.hists[s] }

// Snapshot copies every stage histogram, indexed by Stage.
func (p *Pipeline) Snapshot() [NumStages]HistogramSnapshot {
	var out [NumStages]HistogramSnapshot
	for i := range p.hists {
		out[i] = p.hists[i].Snapshot()
	}
	return out
}

// SpanClock stamps consecutive stage boundaries into a StageTimings with
// one monotonic clock read per boundary: Start once, then Lap at the end
// of each stage. The zero value is inert (Lap on an unstarted clock
// records nothing), which is how disabled telemetry stays free.
type SpanClock struct {
	last time.Time
}

// Start arms the clock at the beginning of a stage sequence.
func (c *SpanClock) Start() { c.last = time.Now() }

// StartAt arms the clock at a caller-chosen instant, for callers that
// already read the clock (to anchor a trace) and must not pay a second
// read.
func (c *SpanClock) StartAt(t time.Time) { c.last = t }

// Lap records the span since the previous Start/Lap under stage s and
// re-arms for the next stage. On an unarmed clock it is a no-op.
func (c *SpanClock) Lap(t *StageTimings, s Stage) {
	if c.last.IsZero() {
		return
	}
	now := time.Now()
	t[s] = now.Sub(c.last)
	c.last = now
}
