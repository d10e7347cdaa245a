package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/probe"
)

// validLine renders one well-formed checkpoint line (without newline).
func validLine(t *testing.T, i int) string {
	t.Helper()
	id := core.Identification{Label: "BIC", Confidence: 0.9, Wmax: 256, MSS: 100, Valid: true, Elapsed: 3 * time.Second}
	data, err := json.Marshal(recordOf(i, 1, id))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDecodeRecordsTruncation is the crash-artifact table test: a torn
// final line (no trailing newline) is skipped and counted, while the same
// corruption mid-file -- or a newline-terminated corrupt line -- is fatal.
func TestDecodeRecordsTruncation(t *testing.T) {
	l0, l1 := "", ""
	tests := []struct {
		name    string
		build   func(t *testing.T) string
		records int
		skipped int
		wantErr bool
	}{
		{
			name:    "clean log",
			build:   func(t *testing.T) string { return l0 + "\n" + l1 + "\n" },
			records: 2,
		},
		{
			name:    "empty log",
			build:   func(t *testing.T) string { return "" },
			records: 0,
		},
		{
			name:    "blank lines tolerated",
			build:   func(t *testing.T) string { return l0 + "\n\n" + l1 + "\n\n" },
			records: 2,
		},
		{
			name:    "truncated JSON tail skipped",
			build:   func(t *testing.T) string { return l0 + "\n" + l1[:len(l1)/2] },
			records: 1,
			skipped: 1,
		},
		{
			name:    "complete final line without newline is kept",
			build:   func(t *testing.T) string { return l0 + "\n" + l1 },
			records: 2,
		},
		{
			name:    "truncated tail with garbage skipped",
			build:   func(t *testing.T) string { return l0 + "\n\x00\x7f{{" },
			records: 1,
			skipped: 1,
		},
		{
			name:    "out-of-range tail without newline skipped",
			build:   func(t *testing.T) string { return l0 + "\n" + `{"i":999,"attempts":1}` },
			records: 1,
			skipped: 1,
		},
		{
			name:    "corrupt mid-file line is fatal",
			build:   func(t *testing.T) string { return l0[:len(l0)/2] + "\n" + l1 + "\n" },
			wantErr: true,
		},
		{
			name:    "newline-terminated corrupt last line is fatal",
			build:   func(t *testing.T) string { return l0 + "\n" + l1[:len(l1)/2] + "\n" },
			wantErr: true,
		},
		{
			name:    "out-of-range index is fatal",
			build:   func(t *testing.T) string { return `{"i":999,"attempts":1}` + "\n" },
			wantErr: true,
		},
		{
			name:    "negative index is fatal",
			build:   func(t *testing.T) string { return `{"i":-1,"attempts":1}` + "\n" },
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			l0, l1 = validLine(t, 0), validLine(t, 1)
			recs, skipped, err := decodeRecords(strings.NewReader(tt.build(t)), 10)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("want error, got %d records", len(recs))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tt.records || skipped != tt.skipped {
				t.Fatalf("got %d records, %d skipped; want %d, %d", len(recs), skipped, tt.records, tt.skipped)
			}
		})
	}
}

// TestLoadCheckpointTruncatedTail drives the same guarantee end to end:
// a checkpoint whose process died mid-append resumes with the torn line
// dropped and everything before it intact.
func TestLoadCheckpointTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	w, err := openCheckpoint(dir, Manifest{Version: manifestVersion, Fingerprint: "f", Targets: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append(recordOf(i, 1, core.Identification{Valid: true, Label: "BIC", Wmax: 256})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: tear the last line's final bytes off.
	path := filepath.Join(dir, checkpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	m, recs, skipped, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Targets != 10 || len(recs) != 2 || skipped != 1 {
		t.Fatalf("manifest %+v, %d records, %d skipped", m, len(recs), skipped)
	}
	for i, rec := range recs {
		if rec.I != i || !rec.identification().Valid {
			t.Fatalf("record %d corrupted: %+v", i, rec)
		}
	}
}

// TestRecordRoundTrip: a checkpointed identification reconstructs
// value-identical, including the feature vector and invalid reasons.
func TestRecordRoundTrip(t *testing.T) {
	ids := []core.Identification{
		{Label: "CUBIC2-BIG", Confidence: 0.75, Wmax: 512, MSS: 536, Valid: true, Elapsed: 42 * time.Second},
		{Reason: probe.ReasonNoResponse},
		{Reason: ReasonUnreachable},
	}
	ids[0].Vector[0] = 0.123456789
	ids[0].Vector[3] = -7.5
	for _, id := range ids {
		data, err := json.Marshal(recordOf(4, 2, id))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeRecord(data, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.identification(); got != id {
			t.Fatalf("round trip changed the identification:\n%+v\n%+v", got, id)
		}
		if rec.Attempts != 2 {
			t.Fatalf("attempts = %d", rec.Attempts)
		}
	}
}

// FuzzCheckpoint fuzzes the record-log decoder with arbitrary bytes: it
// must never panic, and whatever it accepts must respect the population
// bound and survive a re-encode/re-decode round trip.
func FuzzCheckpoint(f *testing.F) {
	f.Add([]byte("{\"i\":0,\"attempts\":1,\"label\":\"BIC\",\"valid\":true}\n"), 10)
	f.Add([]byte("{\"i\":1,\"attempts\":2,\"reason\":\"abandoned: unreachable\"}\n{\"i\":2,\"attempts\""), 10)
	f.Add([]byte("\n\n\n"), 3)
	f.Add([]byte("{\"i\":0,\"vector\":[1,2,3]}\n"), 1)
	f.Add([]byte("not json at all"), 0)
	f.Add([]byte{0xff, 0xfe, 0x00}, 5)
	f.Fuzz(func(t *testing.T, data []byte, targets int) {
		if targets < 0 || targets > 1<<20 {
			targets = 0
		}
		recs, skipped, err := decodeRecords(bytes.NewReader(data), targets)
		if err != nil {
			return
		}
		if skipped > 1 {
			t.Fatalf("only the final line can be torn, got %d skips", skipped)
		}
		for _, rec := range recs {
			if rec.I < 0 || (targets > 0 && rec.I >= targets) {
				t.Fatalf("accepted out-of-range record %+v (targets %d)", rec, targets)
			}
			reenc, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("accepted unmarshalable record %+v: %v", rec, err)
			}
			back, err := decodeRecord(reenc, targets)
			if err != nil {
				t.Fatalf("re-decode of %s failed: %v", reenc, err)
			}
			if back.identification() != rec.identification() {
				t.Fatalf("identification not stable across re-encode: %+v vs %+v", back, rec)
			}
		}
	})
}

// FuzzManifest fuzzes the manifest decoder: no panics, and accepted
// manifests are in-range. The "completed" record count older writers
// kept is an unknown field now, which decoding ignores.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"fingerprint":"abc","targets":10,"completed":3}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if m.Version != manifestVersion || m.Targets <= 0 {
			t.Fatalf("accepted out-of-range manifest %+v", m)
		}
	})
}
