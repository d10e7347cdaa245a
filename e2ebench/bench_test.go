package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// at builds a span over [a, b] milliseconds after a fixed origin.
func at(name string, a, b int, parent int) span {
	t0 := time.Unix(1_700_000_000, 0)
	return span{name: name, start: t0.Add(time.Duration(a) * time.Millisecond), end: t0.Add(time.Duration(b) * time.Millisecond), parent: parent}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		at("root", 0, 100, -1),
		at("a", 10, 40, 0),
		at("b", 30, 60, 0),  // overlaps a: the union covers 10..60 once
		at("c", 90, 120, 0), // overhangs the parent: only 90..100 counts
		at("a.child", 15, 35, 1),
		at("d", 70, 70, 0), // empty
	}
	got := selfTimes(spans)
	want := []time.Duration{40, 10, 30, 30, 20, 0}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i]*time.Millisecond)
		}
	}
	if byName := selfByName(spans); byName["root"] != 40*time.Millisecond || byName["a.child"] != 20*time.Millisecond {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestStagesEndWithTheirCall(t *testing.T) {
	rec := &recorder{on: true, spans: []span{at("core.identify", 0, 100, -1)}}
	var tm telemetry.StageTimings
	tm[telemetry.StageGather] = 50 * time.Millisecond
	tm[telemetry.StageFeature] = 20 * time.Millisecond
	tm[telemetry.StageQueueWait] = 5 * time.Millisecond // not named: not recorded
	rec.stages(0, &tm, pipelineStages)
	want := []span{at("feature.prepare", 80, 100, 0), at("probe.gather", 30, 80, 0)}
	if got := rec.spans[1:]; !reflect.DeepEqual(got, want) {
		t.Errorf("stage spans = %+v, want %+v", got, want)
	}
	if self := selfTimes(rec.spans)[0]; self != 30*time.Millisecond {
		t.Errorf("self time of the call = %v, want 30ms", self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// benchmarkFile is the shape of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCatalogue fails when BENCHMARK.json and the
// metrics this program reports disagree.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := []string{"bash", "e2ebench/run.sh"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command %v, want %v", bf.Command, want)
	}
	if want := []string{"e2ebench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths %v, want %v", bf.Paths, want)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s gives no reason", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, e2ebench runs %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, e2ebench reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, e2ebench has %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, e2ebench reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, e2ebench has %+v", i, m, d)
		}
		if d.layer == "" || d.moves == "" {
			t.Errorf("per-layer metric %s names no layer or prediction", d.name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
	}
}

// TestSmoke runs every workload at tiny scale against a freshly built
// caai-serve, end to end and traced, and checks that every metric is
// reported, finite, and that every output check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches caai-serve")
	}
	bin := filepath.Join(t.TempDir(), "caai-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/caai-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building caai-serve: %v\n%s", err, out)
	}
	out := t.TempDir()
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, traced: traced, serve: bin, out: out,
				launches: 1, warm: 300 * time.Millisecond, rounds: 1, round: 300 * time.Millisecond}
			res, err := runBench(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d: %v", w, traced, res.correct, res.attempted, res.failed, res.problems)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, m := range specs {
				v, ok := res.metrics[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (traced=%v): metric %s = %v (reported %v)", w, traced, m.name, v, ok)
				}
			}
			if !traced {
				continue
			}
			// The replay's stage self times partition its root spans.
			sum := res.metrics["replay.gather_us_per_id"] + res.metrics["replay.feature_us_per_id"] +
				res.metrics["replay.classify_us_per_id"] + res.metrics["replay.self_us_per_id"]
			if total := res.metrics["replay.us_per_id"]; math.Abs(sum-total) > 0.15*total {
				t.Errorf("%s: stage self times sum to %.1fus, root spans %.1fus per identification", w, sum, total)
			}
			data, err := os.ReadFile(filepath.Join(out, "traces", w+"-seed7.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("%s: Chrome trace has %d events: %v", w, len(tr.TraceEvents), err)
			}
		}
	}
}
