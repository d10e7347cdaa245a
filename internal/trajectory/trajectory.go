// Package trajectory owns the regression-history protocol both histories
// share: the perf history (BENCH_<n>.json, internal/bench and
// cmd/caai-bench) and the accuracy history (ACCURACY_<n>.json,
// internal/eval and cmd/caai-eval). It names, writes and reads their
// points, decodes budget files strictly, and runs the tail both commands
// end with (-compare, the filtered-run skip, write then gate), so the two
// histories cannot drift apart.
package trajectory

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// Kind describes one history.
type Kind struct {
	// Prefix names the files, <Prefix>_<n>.json.
	Prefix string
	// Schema is the point layout version Read accepts.
	Schema int
	// Source reports whether a point's "source" field marks it as this
	// kind: a file of the other history, or foreign JSON, decodes
	// "cleanly" to all-zero fields and would otherwise read as a point.
	Source func(string) bool
	// Noun and Violation word the gate's lines: "all <Noun> budgets met",
	// "<Violation> VIOLATION: ...".
	Noun, Violation string
}

// last returns the name and index of the highest-indexed file of k's
// history in dir (index -1 in an empty history).
func (k Kind) last(dir string) (string, int, error) {
	list, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	pat := regexp.MustCompile(`^` + regexp.QuoteMeta(k.Prefix) + `_(\d+)\.json$`)
	name, max := "", -1
	for _, e := range list {
		if m := pat.FindStringSubmatch(e.Name()); m != nil {
			// Atoi fails only on an index overflowing int.
			if n, err := strconv.Atoi(m[1]); err == nil && n > max {
				name, max = e.Name(), n
			}
		}
	}
	return name, max, nil
}

// NextPath returns the path of the next file in dir, <Prefix>_<max+1>.json
// (<Prefix>_0.json in an empty history; indices need not be dense).
func (k Kind) NextPath(dir string) (string, error) {
	_, max, err := k.last(dir)
	return filepath.Join(dir, fmt.Sprintf("%s_%d.json", k.Prefix, max+1)), err
}

// LatestPath returns the highest-indexed file in dir, or an error naming
// the empty history.
func (k Kind) LatestPath(dir string) (string, error) {
	name, _, err := k.last(dir)
	if err == nil && name == "" {
		err = fmt.Errorf("trajectory: no %s_<n>.json points in %s", k.Prefix, dir)
	}
	return filepath.Join(dir, name), err
}

// Write writes point to path as indented JSON.
func Write(path string, point any) error {
	data, err := json.MarshalIndent(point, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// Read reads a point of kind k from path, rejecting a file whose schema
// or source marks it as anything else.
func Read[P any](k Kind, path string) (P, error) {
	var p P
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	var head struct {
		Schema int    `json:"schema"`
		Source string `json:"source"`
	}
	if err = json.Unmarshal(data, &head); err == nil {
		err = json.Unmarshal(data, &p)
	}
	if err != nil {
		return p, fmt.Errorf("trajectory: parsing %s: %w", path, err)
	}
	if head.Schema != k.Schema || !k.Source(head.Source) {
		return *new(P), fmt.Errorf("trajectory: %s is not a %s point (schema %d, source %q)", path, k.Prefix, head.Schema, head.Source)
	}
	return p, nil
}

// LoadBudget reads a budget file. Unknown limit fields fail loudly: a typo
// like "max_alloc_per_op" would otherwise leave the entry limitless and
// silently disable the gate. A budget type with a Validate method has it
// run after decoding.
func LoadBudget[B any](path string) (B, error) {
	var b B
	f, err := os.Open(path)
	if err != nil {
		return b, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("trajectory: parsing budget %s: %w", path, err)
	}
	if v, ok := any(b).(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return b, fmt.Errorf("trajectory: budget %s: %w", path, err)
		}
	}
	return b, nil
}

// Compare is a command's -compare mode: it reads the two files args names
// as points of kind k and writes render's before/after table to w.
func Compare[P any](w io.Writer, k Kind, args []string, render func(before, after P) string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants exactly two trajectory files, got %d", len(args))
	}
	before, err := Read[P](k, args[0])
	if err != nil {
		return err
	}
	after, err := Read[P](k, args[1])
	if err != nil {
		return err
	}
	fmt.Fprint(w, render(before, after))
	return nil
}

// Run is what a command's flags say to do with a measured point.
type Run struct {
	// Dir holds the history (-out).
	Dir string
	// Budget is the budget file to enforce (-budget); empty or missing
	// disables the gate.
	Budget string
	// DryRun skips the write (-n).
	DryRun bool
	// Filtered marks a partial measurement, which is neither written nor
	// gated.
	Filtered bool
}

// Record ends a command that measured p. A filtered run is exploratory:
// writing it would leave a hole in the history, and gating it would
// report what it skipped as violations. Otherwise p is written as the
// next point in r.Dir, then graded against r.Budget's file; each broken
// limit is printed and the run fails.
func Record[P any, B interface{ Check(P) []string }](w io.Writer, k Kind, p P, r Run) error {
	if r.Filtered {
		fmt.Fprintln(w, "filtered run: trajectory write and budget gate skipped")
		return nil
	}
	if !r.DryRun {
		path, err := k.NextPath(r.Dir)
		if err != nil {
			return err
		}
		if err := Write(path, p); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	if r.Budget == "" {
		return nil
	}
	budget, err := LoadBudget[B](r.Budget)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // no gate configured
	}
	if err != nil {
		return err
	}
	violations := budget.Check(p)
	for _, v := range violations {
		fmt.Fprintf(w, "%s VIOLATION: %s\n", k.Violation, v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d %s budget violation(s)", len(violations), k.Noun)
	}
	fmt.Fprintf(w, "all %s budgets met\n", k.Noun)
	return nil
}
