// Package classify defines the classifier abstraction the CAAI pipeline is
// built on. CAAI step 3 ("classify") only needs a label and a confidence
// for a feature vector; everything that can produce those -- the random
// forest the paper settled on, the Weka comparison classifiers in
// internal/ml, or an out-of-tree experiment -- implements Classifier and
// plugs into core.Identifier, its per-worker batches (IdentifyEach), and
// the census runner unchanged. The pipeline calls Classify once per
// feature vector, batch paths included: a vote costs microseconds against
// a millisecond of probing, so there is no batched entry point to
// implement.
//
// The package also defines the model persistence layer: a Codec serializes
// one classifier backend, and Save/Load wrap codecs in a self-describing
// versioned envelope so tools can write a trained model once and reload it
// without knowing the backend in advance.
package classify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Classifier is the common classification interface (moved here from
// internal/ml so the pipeline does not depend on one model family).
type Classifier interface {
	// Name identifies the classifier backend in reports.
	Name() string
	// Classify returns the predicted label and a confidence in [0, 1].
	Classify(features []float64) (string, float64)
}

// Codec serializes trained classifiers of one backend. Implementations
// register themselves with RegisterCodec (typically from an init function)
// so Save and Load can dispatch on the backend name.
type Codec interface {
	// Backend is the name under which models are saved; it must match the
	// Name() of the classifiers the codec handles.
	Backend() string
	// Encode writes c to w.
	Encode(w io.Writer, c Classifier) error
	// Decode reads a classifier previously written by Encode.
	Decode(r io.Reader) (Classifier, error)
}

var (
	codecMu sync.RWMutex
	codecs  = map[string]Codec{}
)

// RegisterCodec makes a codec available to Save and Load. Registering two
// codecs for the same backend panics (a programming error, like a duplicate
// database/sql driver).
func RegisterCodec(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecs[c.Backend()]; dup {
		panic("classify: duplicate codec for backend " + c.Backend())
	}
	codecs[c.Backend()] = c
}

// Codecs lists the registered backend names, sorted.
func Codecs() []string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	out := make([]string, 0, len(codecs))
	for name := range codecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func codecFor(backend string) (Codec, error) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecs[backend]
	if !ok {
		return nil, fmt.Errorf("classify: no codec registered for backend %q (have %v)", backend, Codecs())
	}
	return c, nil
}

// envelopeVersion guards the on-disk model format.
const envelopeVersion = 1

// envelope is the self-describing model file layout: the backend name
// selects the codec, Model holds the codec's own payload, and Probe the
// probe budget the model's training set was gathered at -- opaque here,
// written and read by core, and absent from files that predate it.
type envelope struct {
	Version int             `json:"version"`
	Backend string          `json:"backend"`
	Probe   json.RawMessage `json:"probe,omitempty"`
	Model   json.RawMessage `json:"model"`
}

// Save writes c to w as a versioned envelope using the codec registered
// for c.Name(). A non-nil probe is JSON-encoded into the envelope's probe
// field.
func Save(w io.Writer, c Classifier, probe any) error {
	codec, err := codecFor(c.Name())
	if err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := codec.Encode(&payload, c); err != nil {
		return fmt.Errorf("classify: encoding %s model: %w", c.Name(), err)
	}
	env := envelope{Version: envelopeVersion, Backend: c.Name(), Model: json.RawMessage(payload.Bytes())}
	if probe != nil {
		if env.Probe, err = json.Marshal(probe); err != nil {
			return fmt.Errorf("classify: encoding probe budget: %w", err)
		}
	}
	return json.NewEncoder(w).Encode(env)
}

// Load reads a classifier previously written by Save, dispatching to the
// codec named in the envelope. When the envelope has a probe field and
// probe is non-nil, the field is decoded into probe; otherwise probe is
// left as it was.
func Load(r io.Reader, probe any) (Classifier, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("classify: reading model envelope: %w", err)
	}
	if env.Version != envelopeVersion {
		return nil, fmt.Errorf("classify: unsupported model version %d (want %d)", env.Version, envelopeVersion)
	}
	codec, err := codecFor(env.Backend)
	if err != nil {
		return nil, err
	}
	if probe != nil && len(env.Probe) > 0 {
		if err := json.Unmarshal(env.Probe, probe); err != nil {
			return nil, fmt.Errorf("classify: decoding probe budget: %w", err)
		}
	}
	c, err := codec.Decode(bytes.NewReader(env.Model))
	if err != nil {
		return nil, fmt.Errorf("classify: decoding %s model: %w", env.Backend, err)
	}
	return c, nil
}
