package shard

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/probe"
	"repro/internal/trace"
)

// Checkpoint layout: a checkpoint directory holds
//
//	checkpoint.jsonl  -- append-only, one Record per completed target
//	MANIFEST.json     -- metadata, atomically replaced (tmp+rename) when
//	                     the checkpoint is opened and when it is closed
//
// The JSONL file is the source of truth: a record is durable the moment
// its line (with trailing newline) hits the file. The manifest carries a
// config fingerprint so a resume against a different population, seed, or
// fault plan fails loudly instead of merging incompatible outcomes. A
// crash can leave a truncated final line; Load skips it (that target is
// simply re-probed -- deterministically, so the tables cannot drift) and
// treats any corruption *before* the final line as fatal.

const (
	checkpointFile = "checkpoint.jsonl"
	manifestFile   = "MANIFEST.json"
)

// Record is one durably completed target in the checkpoint log. It
// round-trips the full Identification except Timings (wall-clock spans,
// zero in shard runs), so a resumed run's outcomes are value-identical to
// an uninterrupted run's.
type Record struct {
	// I is the population index of the target.
	I int `json:"i"`
	// Attempts is the number of contact attempts the target consumed
	// (1 for a first-try success).
	Attempts int `json:"attempts"`

	Label      string    `json:"label,omitempty"`
	Confidence float64   `json:"conf,omitempty"`
	Special    int       `json:"special,omitempty"`
	Vector     []float64 `json:"vector,omitempty"`
	Wmax       int       `json:"wmax,omitempty"`
	MSS        int       `json:"mss,omitempty"`
	Valid      bool      `json:"valid,omitempty"`
	Reason     string    `json:"reason,omitempty"`
	ElapsedNs  int64     `json:"elapsed_ns,omitempty"`
}

// recordOf flattens an identification into its checkpoint record.
func recordOf(i, attempts int, id core.Identification) Record {
	r := Record{
		I:          i,
		Attempts:   attempts,
		Label:      id.Label,
		Confidence: id.Confidence,
		Special:    int(id.Special),
		Wmax:       id.Wmax,
		MSS:        id.MSS,
		Valid:      id.Valid,
		Reason:     string(id.Reason),
		ElapsedNs:  int64(id.Elapsed),
	}
	var zero feature.Vector
	if id.Vector != zero {
		r.Vector = append(r.Vector, id.Vector[:]...)
	}
	return r
}

// identification reconstructs the Identification a record was made from.
func (r Record) identification() core.Identification {
	id := core.Identification{
		Label:      r.Label,
		Confidence: r.Confidence,
		Special:    trace.Special(r.Special),
		Wmax:       r.Wmax,
		MSS:        r.MSS,
		Valid:      r.Valid,
		Reason:     probe.InvalidReason(r.Reason),
		Elapsed:    time.Duration(r.ElapsedNs),
	}
	copy(id.Vector[:], r.Vector)
	return id
}

// Manifest is the atomically replaced checkpoint metadata. Decoding
// ignores unknown fields, so a manifest that still carries the record
// count older writers kept ("completed") resumes as well.
type Manifest struct {
	// Version is the checkpoint format version.
	Version int `json:"version"`
	// Fingerprint binds the checkpoint to its census configuration
	// (population, seed, probe budget, retry policy, fault plan).
	Fingerprint string `json:"fingerprint"`
	// Targets is the population size of the run.
	Targets int `json:"targets"`
}

// manifestVersion is the current checkpoint format version.
const manifestVersion = 1

// fingerprint hashes the identity-defining parts of a census config and
// the probe budget its targets are probed at. Two runs with equal
// fingerprints probe the same targets with the same seeds and budget
// under the same fault plan, so their outcomes can be merged.
func fingerprint(cfg Config, budget probe.Config, targets int) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|targets=%d|seed=%d|attempts=%d|deferrals=%d|",
		manifestVersion, targets, cfg.Seed, cfg.maxAttempts(), cfg.maxDeferrals())
	fmt.Fprintf(h, "probe=%+v|", budget)
	if cfg.Fault != nil {
		plan, _ := json.Marshal(cfg.Fault)
		h.Write(plan)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ErrFingerprint reports a resume against an incompatible checkpoint.
var ErrFingerprint = errors.New("shard: checkpoint fingerprint does not match census config")

// decodeManifest parses and validates a manifest document.
func decodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("shard: manifest: %v", err)
	}
	if m.Version != manifestVersion {
		return Manifest{}, fmt.Errorf("shard: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.Targets <= 0 {
		return Manifest{}, fmt.Errorf("shard: manifest out of range: %+v", m)
	}
	return m, nil
}

// decodeRecords parses a checkpoint JSONL stream. targets bounds the
// population indices (0 disables the bound, for fuzzing arbitrary logs).
// A corrupt or out-of-range *final* line without a trailing newline is
// the torn-write crash artifact: it is skipped and counted, not fatal.
// Corruption anywhere else is fatal.
func decodeRecords(r io.Reader, targets int) (recs []Record, skipped int, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, 0, rerr
		}
		truncated := rerr == io.EOF && len(line) > 0
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			rec, derr := decodeRecord(trimmed, targets)
			switch {
			case derr == nil:
				recs = append(recs, rec)
			case truncated:
				skipped++
			default:
				return nil, 0, fmt.Errorf("shard: corrupt checkpoint record %q: %v", clip(trimmed), derr)
			}
		}
		if rerr == io.EOF {
			return recs, skipped, nil
		}
	}
}

// decodeRecord parses one checkpoint line and range-checks it.
func decodeRecord(line []byte, targets int) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, err
	}
	if rec.I < 0 || (targets > 0 && rec.I >= targets) {
		return Record{}, fmt.Errorf("target index %d out of range [0, %d)", rec.I, targets)
	}
	if rec.Attempts < 0 {
		return Record{}, fmt.Errorf("negative attempts %d", rec.Attempts)
	}
	if len(rec.Vector) > len(feature.Vector{}) {
		return Record{}, fmt.Errorf("vector has %d features, max %d", len(rec.Vector), len(feature.Vector{}))
	}
	return rec, nil
}

// clip bounds a corrupt line for error messages.
func clip(b []byte) []byte {
	if len(b) > 80 {
		return b[:80]
	}
	return b
}

// LoadCheckpoint reads a checkpoint directory. It returns the manifest,
// the durable records (later records win on duplicate indices), and the
// number of torn trailing lines skipped. A directory with no manifest is
// an empty checkpoint (nothing ran); a missing directory is an error.
func LoadCheckpoint(dir string) (Manifest, []Record, int, error) {
	if st, err := os.Stat(dir); err != nil {
		return Manifest{}, nil, 0, err
	} else if !st.IsDir() {
		return Manifest{}, nil, 0, fmt.Errorf("shard: checkpoint path %s is not a directory", dir)
	}
	mdata, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, nil, 0, nil
	} else if err != nil {
		return Manifest{}, nil, 0, err
	}
	m, err := decodeManifest(mdata)
	if err != nil {
		return Manifest{}, nil, 0, err
	}
	f, err := os.Open(filepath.Join(dir, checkpointFile))
	if errors.Is(err, os.ErrNotExist) {
		return m, nil, 0, nil
	} else if err != nil {
		return Manifest{}, nil, 0, err
	}
	defer f.Close()
	recs, skipped, err := decodeRecords(f, m.Targets)
	if err != nil {
		return Manifest{}, nil, 0, err
	}
	return m, recs, skipped, nil
}

// checkpointWriter appends records durably. Appends are serialized
// (workers complete targets concurrently) and each record is flushed with
// its trailing newline before append returns, so the torn-write window is
// confined to the final line.
type checkpointWriter struct {
	mu        sync.Mutex
	f         *os.File
	dir       string
	manifest  Manifest
	total     int // records ever written (for fault cadence)
	failEvery int // inject a write failure every Nth append (0 = never)
}

// openCheckpoint opens dir for appending, creating it on first use, and
// writes m as its manifest.
func openCheckpoint(dir string, m Manifest, failEvery int) (*checkpointWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, checkpointFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &checkpointWriter{f: f, dir: dir, manifest: m, failEvery: failEvery}
	if err := w.writeManifest(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// errInjectedWrite is the checkpoint-write failure injected by FaultPlan.
var errInjectedWrite = errors.New("shard: injected checkpoint write failure")

// append writes one record line and flushes it. Injected failures drop
// the record before it reaches the file, modeling a full disk or torn
// write: the in-memory outcome survives, only durability is lost.
func (w *checkpointWriter) append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.total++
	if w.failEvery > 0 && w.total%w.failEvery == 0 {
		return errInjectedWrite
	}
	_, err = w.f.Write(append(data, '\n'))
	return err
}

// writeManifest atomically replaces the manifest (tmp+rename). Callers
// hold w.mu, or own w exclusively.
func (w *checkpointWriter) writeManifest() error {
	data, err := json.MarshalIndent(w.manifest, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(w.dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(w.dir, manifestFile))
}

// close rewrites the manifest and releases the log file.
func (w *checkpointWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	merr := w.writeManifest()
	if err := w.f.Close(); err != nil {
		return err
	}
	return merr
}
