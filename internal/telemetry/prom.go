package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (version 0.0.4) writers. The service's
// GET /metrics composes these into its scrape body; they are plain
// formatting helpers with no registry -- the caller owns metric naming
// and snapshot consistency.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter accumulates one exposition body. Families must be written
// as a unit (HELP/TYPE then samples), which the Write* helpers enforce.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the HELP/TYPE preamble of one metric family.
func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Header writes one family's HELP/TYPE preamble explicitly, for callers
// emitting a labelled histogram vector via HistogramSamples.
func (p *PromWriter) Header(name, help, typ string) { p.header(name, help, typ) }

// labelString renders a label set as {k="v",...}, keys sorted for a
// deterministic exposition (empty map renders empty).
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// Counter writes one counter family with a single unlabelled sample.
func (p *PromWriter) Counter(name, help string, v int64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, v)
}

// FloatCounter writes one counter family whose sample is a monotonic
// float total (e.g. accumulated seconds).
func (p *PromWriter) FloatCounter(name, help string, v float64) {
	p.header(name, help, "counter")
	p.printf("%s %s\n", name, formatFloat(v))
}

// CounterVec writes one counter family with one sample per label set.
// samples maps the rendered label value (for the given label name) to the
// count; keys are emitted sorted.
func (p *PromWriter) CounterVec(name, help, label string, samples map[string]int64) {
	p.header(name, help, "counter")
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.printf("%s{%s=\"%s\"} %d\n", name, label, escapeLabel(k), samples[k])
	}
}

// Gauge writes one gauge family with a single unlabelled sample.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.printf("%s %s\n", name, formatFloat(v))
}

// Histogram writes one histogram family in seconds: cumulative le
// buckets, +Inf, _sum, and _count, with the optional shared label set on
// every sample.
func (p *PromWriter) Histogram(name, help string, labels map[string]string, s HistogramSnapshot) {
	p.header(name, help, "histogram")
	p.HistogramSamples(name, labels, s)
}

// HistogramSamples writes the samples of one histogram series without a
// family header, so several label sets share one HELP/TYPE preamble.
func (p *PromWriter) HistogramSamples(name string, labels map[string]string, s HistogramSnapshot) {
	ls := labelString(labels)
	bucketLabels := func(le string) string {
		if ls == "" {
			return `{le="` + le + `"}`
		}
		return ls[:len(ls)-1] + `,le="` + le + `"}`
	}
	var cum int64
	for i := 0; i < NumHistBuckets-1; i++ {
		cum += s.Buckets[i]
		p.printf("%s_bucket%s %d\n", name, bucketLabels(formatFloat(BucketBound(i).Seconds())), cum)
	}
	cum += s.Buckets[NumHistBuckets-1]
	p.printf("%s_bucket%s %d\n", name, bucketLabels("+Inf"), cum)
	p.printf("%s_sum%s %s\n", name, ls, formatFloat(s.Sum.Seconds()))
	p.printf("%s_count%s %d\n", name, ls, s.Count)
}

// CountHistogram writes one small-integer histogram family: cumulative le
// buckets at the exact values 0..NumCountBuckets-2, +Inf for the overflow,
// then _sum and _count. Values are plain counts (not seconds).
func (p *PromWriter) CountHistogram(name, help string, labels map[string]string, s CountHistSnapshot) {
	p.header(name, help, "histogram")
	ls := labelString(labels)
	bucketLabels := func(le string) string {
		if ls == "" {
			return `{le="` + le + `"}`
		}
		return ls[:len(ls)-1] + `,le="` + le + `"}`
	}
	var cum int64
	for i := 0; i < NumCountBuckets-1; i++ {
		cum += s.Buckets[i]
		p.printf("%s_bucket%s %d\n", name, bucketLabels(strconv.Itoa(i)), cum)
	}
	cum += s.Buckets[NumCountBuckets-1]
	p.printf("%s_bucket%s %d\n", name, bucketLabels("+Inf"), cum)
	p.printf("%s_sum%s %d\n", name, ls, s.Sum)
	p.printf("%s_count%s %d\n", name, ls, s.Count)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Seconds converts a duration to float seconds (exposition convention).
func Seconds(d time.Duration) float64 { return d.Seconds() }
