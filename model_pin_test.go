package caai

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/forest"
)

// Digests of the models a cold start trains, generated by the
// sort-per-node tree builder before splits were searched over presorted
// orders. A training change that moves a model -- a split, a threshold
// bit, an RNG draw, a gathered vector -- fails here rather than in a
// benchmark's answer check. Regenerate them only for a deliberate
// behaviour change.
const (
	// servedModelDigest is the SHA-256 of the SaveModel file of
	// Train({ConditionsPerPair: 12, Seed: 2011}): the model
	// `caai-serve -train 12` and the end-to-end benchmark build.
	servedModelDigest = "4794492b5d699b1cfbeefd5332ebe64504e8a92fb90f4465073f0ea6cbebe218"
	// singleTreeDigest is the SHA-256 of forest.Save of the one tree the
	// "decisiontree" backend grows on the same training set: every
	// feature as the subspace, seed 2012. SaveModel only accepts the
	// forest backend, so the tree is saved through forest.Save.
	singleTreeDigest = "cf6733434c744b6ecc96773df12729eb9b2a68e3b63b31fc258454508e967e54"
)

func TestTrainedModelsPinned(t *testing.T) {
	id, err := Train(TrainingOptions{ConditionsPerPair: 12, Seed: 2011})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := id.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(saved); hex.EncodeToString(got[:]) != servedModelDigest {
		t.Errorf("served model digest = %x, want %s", got, servedModelDigest)
	}

	ds := id.TrainingSet()
	tree := forest.Train(ds, forest.Config{Trees: 1, Subspace: len(ds.Samples()[0].Features), Seed: 2012})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(buf.Bytes()); hex.EncodeToString(got[:]) != singleTreeDigest {
		t.Errorf("single tree digest = %x, want %s", got, singleTreeDigest)
	}
}
