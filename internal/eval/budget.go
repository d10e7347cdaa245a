package eval

import (
	"fmt"
	"sort"
	"strings"
)

// Limits bounds one budget entry. Absent (null) fields are unchecked;
// the pointer keeps an explicit 0 enforceable (a cell that must at least
// run and parse).
type Limits struct {
	MinAccuracy *float64 `json:"min_accuracy,omitempty"`
}

// Budget maps matrix addresses to minimum accuracies. Three key forms are
// understood:
//
//	"overall"                      whole-matrix accuracy
//	"scenario/<name>"              one scenario's aggregate accuracy
//	"cell/<alg>|<scenario>|<budget>"  one cell (Cell.Key)
//
// Budgeted addresses missing from the evaluated point are violations: a
// silently skipped scenario must not pass the gate.
type Budget map[string]Limits

// Validate rejects a budget holding an unknown key form.
// trajectory.LoadBudget runs it after its strict decode, so a mistyped key
// fails the load rather than the gate.
func (b Budget) Validate() error {
	for key := range b {
		if _, err := parseBudgetKey(key); err != nil {
			return err
		}
	}
	return nil
}

// budgetTarget is one parsed budget address.
type budgetTarget struct {
	kind string // "overall", "scenario", "cell"
	name string // scenario name or cell key
}

func parseBudgetKey(key string) (budgetTarget, error) {
	switch {
	case key == "overall":
		return budgetTarget{kind: "overall"}, nil
	case strings.HasPrefix(key, "scenario/"):
		name := strings.TrimPrefix(key, "scenario/")
		if name == "" {
			return budgetTarget{}, fmt.Errorf("empty scenario in budget key %q", key)
		}
		return budgetTarget{kind: "scenario", name: name}, nil
	case strings.HasPrefix(key, "cell/"):
		name := strings.TrimPrefix(key, "cell/")
		if strings.Count(name, "|") != 2 {
			return budgetTarget{}, fmt.Errorf("budget key %q: want cell/<alg>|<scenario>|<budget>", key)
		}
		return budgetTarget{kind: "cell", name: name}, nil
	default:
		return budgetTarget{}, fmt.Errorf("unknown budget key %q (want overall, scenario/<name>, or cell/<alg>|<scenario>|<budget>)", key)
	}
}

// Check compares a point against the budget and returns one human-readable
// violation per broken limit (empty = within budget).
func (b Budget) Check(p Point) []string {
	cells := map[string]Cell{}
	for _, c := range p.Cells {
		cells[c.Key()] = c
	}
	keys := make([]string, 0, len(b))
	for key := range b {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var violations []string
	for _, key := range keys {
		lim := b[key]
		if lim.MinAccuracy == nil {
			continue
		}
		target, err := parseBudgetKey(key)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		var got float64
		switch target.kind {
		case "overall":
			got = p.Summary.OverallAccuracy
		case "scenario":
			acc, ok := p.Summary.ScenarioAccuracy[target.name]
			if !ok {
				violations = append(violations, fmt.Sprintf("%s: budgeted scenario did not run", key))
				continue
			}
			got = acc
		case "cell":
			c, ok := cells[target.name]
			if !ok {
				violations = append(violations, fmt.Sprintf("%s: budgeted cell did not run", key))
				continue
			}
			got = c.Accuracy
		}
		if got < *lim.MinAccuracy {
			violations = append(violations, fmt.Sprintf("%s: accuracy %.3f below budget %.3f", key, got, *lim.MinAccuracy))
		}
	}
	return violations
}
