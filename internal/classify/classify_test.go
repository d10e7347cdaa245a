package classify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// constant is a trivial classifier used to exercise the codec registry.
type constant struct {
	Label string  `json:"label"`
	Conf  float64 `json:"conf"`
}

func (c constant) Name() string                         { return "Constant" }
func (c constant) Classify([]float64) (string, float64) { return c.Label, c.Conf }

type constantCodec struct{}

func (constantCodec) Backend() string { return "Constant" }

func (constantCodec) Encode(w io.Writer, c Classifier) error {
	cc, ok := c.(constant)
	if !ok {
		return fmt.Errorf("cannot encode %T", c)
	}
	return json.NewEncoder(w).Encode(cc)
}

func (constantCodec) Decode(r io.Reader) (Classifier, error) {
	var cc constant
	if err := json.NewDecoder(r).Decode(&cc); err != nil {
		return nil, err
	}
	return cc, nil
}

func init() { RegisterCodec(constantCodec{}) }

func TestEnvelopeRoundTrip(t *testing.T) {
	orig := constant{Label: "CUBIC2", Conf: 0.9}
	var buf bytes.Buffer
	if err := Save(&buf, orig, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	label, conf := loaded.Classify(nil)
	if label != "CUBIC2" || conf != 0.9 {
		t.Fatalf("loaded model classifies as (%s, %v)", label, conf)
	}
}

// unregistered has no codec.
type unregistered struct{}

func (unregistered) Name() string                         { return "Mystery" }
func (unregistered) Classify([]float64) (string, float64) { return "", 0 }

func TestSaveUnknownBackend(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, unregistered{}, nil); err == nil {
		t.Fatal("Save accepted a backend with no codec")
	}
}

func TestLoadUnknownBackend(t *testing.T) {
	doc := `{"version":1,"backend":"Mystery","model":{}}`
	if _, err := Load(strings.NewReader(doc), nil); err == nil {
		t.Fatal("Load accepted an unknown backend")
	}
}

func TestLoadBadVersion(t *testing.T) {
	doc := `{"version":42,"backend":"Constant","model":{"label":"x","conf":1}}`
	if _, err := Load(strings.NewReader(doc), nil); err == nil {
		t.Fatal("Load accepted a future envelope version")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json at all"), nil); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterCodec(constantCodec{})
}

func TestCodecsSorted(t *testing.T) {
	names := Codecs()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Codecs() not sorted: %v", names)
		}
	}
}
