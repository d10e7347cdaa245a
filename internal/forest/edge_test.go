package forest

import (
	"math/rand"
	"testing"
)

func TestSubspaceLargerThanDims(t *testing.T) {
	ds := clusterDataset(t, 20, 31)
	// Subspace 10 > 3 dims must clamp, not panic.
	f := Train(ds, Config{Trees: 5, Subspace: 10, Seed: 32})
	if label, _ := f.Classify([]float64{0, 0, 0}); label != "a" {
		t.Fatalf("got %s", label)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Trees != 80 || cfg.Subspace != 4 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
}

func TestForestClassesImmutableView(t *testing.T) {
	ds := clusterDataset(t, 10, 33)
	f := Train(ds, Config{Trees: 3, Subspace: 2, Seed: 34})
	// Classes returns a shared read-only view: stable across calls (no
	// per-call copy) and aligned with the vote-vector index order.
	a, b := f.Classes(), f.Classes()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("Classes must return the same shared view every call")
	}
	want := ds.Classes()
	for i, c := range a {
		if c != want[i] {
			t.Fatalf("Classes()[%d] = %q, want %q", i, c, want[i])
		}
	}
}

func TestClassesZeroAllocs(t *testing.T) {
	ds := clusterDataset(t, 10, 33)
	f := Train(ds, Config{Trees: 3, Subspace: 2, Seed: 34})
	var sink []string
	if n := testing.AllocsPerRun(100, func() { sink = f.Classes() }); n != 0 {
		t.Fatalf("Classes allocates %.1f per call, want 0", n)
	}
	_ = sink
}

func TestCrossValidateFoldFloor(t *testing.T) {
	ds := clusterDataset(t, 10, 35)
	// folds < 2 clamps to 2 rather than degenerating.
	m := CrossValidate(ds, Config{Trees: 3, Subspace: 2, Seed: 36}, 1, rand.New(rand.NewSource(37)))
	total := 0
	for _, a := range m.Classes() {
		for _, p := range m.Classes() {
			total += m.Count(a, p)
		}
	}
	if total != ds.Len() {
		t.Fatalf("validated %d, want %d", total, ds.Len())
	}
}

func TestSortedCopyHelper(t *testing.T) {
	in := []string{"b", "a"}
	out := sortedCopy(in)
	if out[0] != "a" || in[0] != "b" {
		t.Fatal("sortedCopy must not mutate input")
	}
}
