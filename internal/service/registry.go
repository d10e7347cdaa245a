package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
)

// Model is one immutable entry of the Registry: a trained classifier
// wrapped in a ready identifier, tagged with a version. Reloading a name
// installs a fresh *Model; requests that already resolved the old pointer
// finish against it, so swaps are atomic and downtime-free.
type Model struct {
	// Name is the registry key.
	Name string
	// Generation counts swaps of this name, starting at 1.
	Generation int
	// Backend is the classifier backend name (e.g. "randomforest").
	Backend string
	// Path is the model file the entry was loaded from; empty for
	// classifiers installed in-process with Registry.Add.
	Path string
	// LoadedAt is when the entry was installed.
	LoadedAt time.Time

	identifier *core.Identifier
	// sessions pools reusable *core.Session pipelines (probe + feature
	// scratch) for the answer path; they die with the entry on swap.
	// Sessions are single-goroutine: the pool guarantees exclusive use
	// between Get and Put.
	sessions sync.Pool
}

// Version renders the cache-key version tag ("name@generation").
func (m *Model) Version() string { return fmt.Sprintf("%s@%d", m.Name, m.Generation) }

// Identifier returns the ready pipeline identifier.
func (m *Model) Identifier() *core.Identifier { return m.identifier }

// Registry holds the named models a Service answers requests with. The
// first model registered becomes the default (served when a request names
// no model). Safe for concurrent use.
type Registry struct {
	mu          sync.RWMutex
	models      map[string]*Model
	defaultName string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]*Model{}}
}

// install swaps in a fully built entry under name, bumping its
// generation. Path is taken as given: swapping a file-backed name with an
// in-process classifier (Add) clears the backing file, so a later Reload
// cannot silently resurrect the old on-disk model over it.
func (r *Registry) install(name, path string, id *core.Identifier) *Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := 1
	if prev, ok := r.models[name]; ok {
		gen = prev.Generation + 1
	}
	m := &Model{
		Name:       name,
		Generation: gen,
		Backend:    id.Name(),
		Path:       path,
		LoadedAt:   time.Now(),
		identifier: id,
	}
	m.sessions.New = func() any { return m.identifier.NewSession() }
	r.models[name] = m
	if r.defaultName == "" {
		r.defaultName = name
	}
	return m
}

// Add installs an in-process trained classifier under name (no backing
// file, so Reload skips it). Re-adding a name hot-swaps it. The model is
// served at the default probe budget unless c is a *core.Identifier,
// which carries its own.
func (r *Registry) Add(name string, c classify.Classifier) *Model {
	return r.install(name, "", core.NewIdentifier(c))
}

// Load reads a model file (see core.LoadFile) and installs it under name,
// served at the probe budget the file records. The new entry is built
// entirely before the swap: a load error leaves the currently served
// model untouched.
func (r *Registry) Load(name, path string) (*Model, error) {
	id, err := core.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: loading model %q: %w", name, err)
	}
	return r.install(name, path, id), nil
}

// ErrNoModel marks a lookup of an unregistered model name (mapped to
// 404 by the HTTP handlers; match with errors.Is).
var ErrNoModel = errors.New("no such model")

// Get resolves a model by name; the empty name resolves to the default
// (first-registered) model.
func (r *Registry) Get(name string) (*Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defaultName
	}
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("service: %w: %q (have %v)", ErrNoModel, name, r.namesLocked())
	}
	return m, nil
}

// ReloadOne re-reads the named model from the file it was loaded from and
// hot-swaps it. In-process models (no backing file) cannot be reloaded.
func (r *Registry) ReloadOne(name string) (*Model, error) {
	m, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if m.Path == "" {
		return nil, fmt.Errorf("service: model %q has no backing file to reload", m.Name)
	}
	return r.Load(m.Name, m.Path)
}

// Reload re-reads every file-backed model from disk and hot-swaps the
// entries that load cleanly. It returns the refreshed models; a load
// failure keeps the old entry serving and is reported in err (joined
// across models) without aborting the remaining reloads.
func (r *Registry) Reload() ([]*Model, error) {
	r.mu.RLock()
	type target struct{ name, path string }
	var targets []target
	for name, m := range r.models {
		if m.Path != "" {
			targets = append(targets, target{name, m.Path})
		}
	}
	r.mu.RUnlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })

	var out []*Model
	var errs []error
	for _, t := range targets {
		m, err := r.Load(t.name, t.path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, m)
	}
	return out, errors.Join(errs...)
}

// Names lists the registered model names, sorted, default first.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	out := make([]string, 0, len(r.models))
	for name := range r.models {
		if name != r.defaultName {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	if r.defaultName != "" {
		out = append([]string{r.defaultName}, out...)
	}
	return out
}

// Snapshot returns the current entries, default first then sorted by name.
func (r *Registry) Snapshot() []*Model {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Model, 0, len(r.models))
	for _, name := range r.namesLocked() {
		out = append(out, r.models[name])
	}
	return out
}

// Len reports how many models are registered.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
