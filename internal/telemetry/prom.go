package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) sample writers. A
// Registry writes each family's HELP/TYPE preamble and hands its
// PromWriter to the family's samples function, which writes the samples
// with these helpers.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter writes the samples of one exposition body and keeps the
// first write error; Registry.WritePrometheus owns it.
type PromWriter struct {
	w   io.Writer
	err error
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

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
		b.WriteString(labelEscaper.Replace(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// HistogramSamples writes one latency-histogram series in seconds, with
// labels on every sample.
func (p *PromWriter) HistogramSamples(name string, labels map[string]string, s HistogramSnapshot) {
	le := func(i int) string { return formatFloat(BucketBound(i).Seconds()) }
	p.histogram(name, labels, s.Buckets[:], le, formatFloat(s.Sum.Seconds()), s.Count)
}

// CountHistSamples writes one unlabelled small-integer histogram series:
// a bucket per exact value 0..NumCountBuckets-2, +Inf for the overflow.
func (p *PromWriter) CountHistSamples(name string, s CountHistSnapshot) {
	p.histogram(name, nil, s.Buckets[:], strconv.Itoa, strconv.FormatInt(s.Sum, 10), s.Count)
}

// histogram writes one histogram series: a cumulative bucket per bound
// le(i), +Inf for the last bucket, then _sum and _count.
func (p *PromWriter) histogram(name string, labels map[string]string, buckets []int64, le func(int) string, sum string, count int64) {
	ls := labelString(labels)
	var cum int64
	for i, n := range buckets {
		cum += n
		bound := "+Inf"
		if i < len(buckets)-1 {
			bound = le(i)
		}
		if ls == "" {
			p.printf("%s_bucket{le=\"%s\"} %d\n", name, bound, cum)
		} else {
			p.printf("%s_bucket%s,le=\"%s\"} %d\n", name, ls[:len(ls)-1], bound, cum)
		}
	}
	p.printf("%s_sum%s %s\n", name, ls, sum)
	p.printf("%s_count%s %d\n", name, ls, count)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
