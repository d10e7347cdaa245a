package telemetry

import (
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a Prometheus metric family type.
type Kind string

// Family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry is an ordered list of instrument declarations, the one place
// an instrument is named. Each declaration gives its dotted key in the
// JSON body ("cache.hits"; empty for Prometheus only), its Prometheus
// family name (empty for JSON only), help text and kind. JSON and
// WritePrometheus render from it, the exposition in declaration order.
// Declare everything before the first render; rendering is then safe
// alongside any number of concurrent writers.
type Registry struct {
	families []family
}

type family struct {
	key, name, help string
	kind            Kind
	json            func() any
	samples         func(p *PromWriter, name string)
}

// Family declares an instrument whose JSON value and Prometheus samples
// differ in shape. jsonValue returns the key's value at render time;
// returning nil leaves the key out. samples writes the family's samples
// under name after the registry's HELP/TYPE preamble.
func (r *Registry) Family(key string, jsonValue func() any, name, help string, kind Kind, samples func(p *PromWriter, name string)) {
	r.families = append(r.families, family{key, name, help, kind, jsonValue, samples})
}

// Counter declares a counter and returns its handle.
func (r *Registry) Counter(key, name, help string) *Counter {
	c := new(Counter)
	r.CounterFunc(key, name, help, c.Load)
	return c
}

// Gauge declares a gauge and returns its handle.
func (r *Registry) Gauge(key, name, help string) *Gauge {
	g := new(Gauge)
	r.GaugeFunc(key, name, help, g.Load)
	return g
}

// CounterFunc declares a counter whose value load reads at render time.
func (r *Registry) CounterFunc(key, name, help string, load func() int64) {
	r.intFunc(key, name, help, KindCounter, load)
}

// GaugeFunc declares a gauge whose value load reads at render time.
func (r *Registry) GaugeFunc(key, name, help string, load func() int64) {
	r.intFunc(key, name, help, KindGauge, load)
}

func (r *Registry) intFunc(key, name, help string, kind Kind, load func() int64) {
	r.Family(key, func() any { return load() }, name, help, kind, func(p *PromWriter, name string) {
		p.printf("%s %d\n", name, load())
	})
}

// FloatFunc declares a float-valued counter or gauge read at render
// time (accumulated seconds, latency quantiles).
func (r *Registry) FloatFunc(key, name, help string, kind Kind, load func() float64) {
	r.Family(key, func() any { return load() }, name, help, kind, func(p *PromWriter, name string) {
		p.printf("%s %s\n", name, formatFloat(load()))
	})
}

// CounterVec declares a counter family with one label and returns its
// handle. Every preset label value exists from the start, so it renders
// at zero before its first Add.
func (r *Registry) CounterVec(key, name, help, label string, preset ...string) *CounterVec {
	v := new(CounterVec)
	for _, value := range preset {
		v.series.Store(value, new(atomic.Int64))
	}
	r.Family(key, func() any { return v.Snapshot() }, name, help, KindCounter, func(p *PromWriter, name string) {
		counts := v.Snapshot()
		for _, value := range slices.Sorted(maps.Keys(counts)) {
			p.printf("%s{%s=\"%s\"} %d\n", name, label, labelEscaper.Replace(value), counts[value])
		}
	})
	return v
}

// WritePrometheus writes every family that has a Prometheus name, in
// declaration order, and returns the first write error.
func (r *Registry) WritePrometheus(w io.Writer) error {
	p := &PromWriter{w: w}
	for _, f := range r.families {
		if f.name == "" {
			continue
		}
		p.printf("# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.samples(p, f.name)
	}
	return p.err
}

// JSON returns the value of every keyed family, nested on the dots of
// its key ("cache.hits" is {"cache": {"hits": ...}}).
func (r *Registry) JSON() map[string]any {
	out := map[string]any{}
	for _, f := range r.families {
		if f.key == "" {
			continue
		}
		v := f.json()
		if v == nil {
			continue
		}
		obj, key := out, f.key
		for {
			parent, rest, nested := strings.Cut(key, ".")
			if !nested {
				break
			}
			child, ok := obj[parent].(map[string]any)
			if !ok {
				child = map[string]any{}
				obj[parent] = child
			}
			obj, key = child, rest
		}
		obj[key] = v
	}
	return out
}

// CounterVec is a family of counters keyed by one label value. The
// label set is small and stabilizes after warm-up, which is sync.Map's
// sweet spot: Add is a lock-free load-and-add, with the store path taken
// only the first time a value appears (the service's BenchmarkCountLabel
// measures it against one mutex-guarded map).
type CounterVec struct {
	series sync.Map // label value -> *atomic.Int64
}

// Add adds n to the series labelled value.
func (v *CounterVec) Add(value string, n int64) {
	c, ok := v.series.Load(value)
	if !ok {
		c, _ = v.series.LoadOrStore(value, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(n)
}

// Snapshot copies every series' count, keyed by label value.
func (v *CounterVec) Snapshot() map[string]int64 {
	out := map[string]int64{}
	v.series.Range(func(k, c any) bool {
		out[k.(string)] = c.(*atomic.Int64).Load()
		return true
	})
	return out
}
