package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/service"
	"repro/internal/websim"
	"repro/internal/xrand"
)

// tally accumulates one connection's outcomes during a round.
type tally struct {
	// ids counts identifications answered: requests, batch specs, census
	// targets, or the servers of a capture (whatever number of flow pairs
	// each one's probe left in it).
	ops, failed, ids int
	// runs counts identifications the server computed: cache hits
	// excluded, a capture's flow pairs each counted.
	runs int
	// opMs holds the latency of each of the workload's main operations
	// (without steal where an operation is long enough to measure it over,
	// see stealClock) and fetchMs the latency of each fetch of an already
	// computed result (see the README for what both are on each workload).
	opMs, fetchMs []float64
	// Workload-specific diagnostics.
	jobs, polls              int
	probes, steals           int64
	streamBytes, uploadBytes int64
	streamTime, uploadTime   time.Duration
	labeled, matched         int
	recomputed               int // hot identify specs evicted from the cache
	streamServers            int
	streamDiffer             int
	errs                     []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// truth counts one labeled answer against the algorithm that produced it.
func (t *tally) truth(r service.IdentifyResponse, algorithm string) {
	t.labeled++
	if r.Valid && r.Label == core.TrainingLabel(algorithm, r.Wmax) {
		t.matched++
	}
}

func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.ids += o.ids
	t.runs += o.runs
	t.opMs = append(t.opMs, o.opMs...)
	t.fetchMs = append(t.fetchMs, o.fetchMs...)
	t.jobs += o.jobs
	t.polls += o.polls
	t.probes += o.probes
	t.steals += o.steals
	t.streamBytes += o.streamBytes
	t.uploadBytes += o.uploadBytes
	t.streamTime += o.streamTime
	t.uploadTime += o.uploadTime
	t.labeled += o.labeled
	t.matched += o.matched
	t.recomputed += o.recomputed
	t.streamServers += o.streamServers
	t.streamDiffer += o.streamDiffer
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workload is one traffic mix driven against the server.
type workload interface {
	// conns is how many connections drive the server at once.
	conns() int
	// prepare runs once before the warm-up round and is not measured.
	prepare(ctx context.Context, cs []*client) error
	// op performs one operation on c and records it in t.
	op(ctx context.Context, c *client, t *tally)
	// check verifies the service's answers after the measured rounds.
	check(ctx context.Context, c *client) error
	// replay returns the workload's in-process replay (valid after the
	// rounds) and the probe gatherings behind the replayed identifications.
	replay() (replayer, []probePath, error)
}

// newWorkload builds the named workload on inputs in.
func newWorkload(name string, in *inputs, id *core.Identifier) (workload, error) {
	switch name {
	case "identify":
		return &identifyLoad{in: in, id: id}, nil
	case "batch":
		return &batchLoad{in: in, id: id}, nil
	case "census":
		return &censusLoad{in: in, id: id}, nil
	case "capture":
		return newCaptureLoad(in, id)
	}
	return nil, fmt.Errorf("unknown workload %q (want identify, batch, census or capture)", name)
}

// recordCap bounds how many fresh identify answers are kept for checks and
// the replay.
const recordCap = 4096

// identifyLoad is the interactive path: two closed-loop connections
// posting /v1/identify, half fresh specs (cache misses that probe) and
// half repeats of 256 hot specs (cache hits).
type identifyLoad struct {
	in      *inputs
	id      *core.Identifier
	next    atomic.Int64
	fresh   atomic.Int64
	hotBody [][]byte
	hot     []service.IdentifyResponse
	served  [recordCap]service.IdentifyResponse
}

func (w *identifyLoad) conns() int { return 2 }

func (w *identifyLoad) prepare(ctx context.Context, cs []*client) error {
	// Fill the server's result cache before timing, as the fresh specs
	// keep it full in the rounds: specs past the hot ones first, then the
	// hot ones, so they are the most recently used.
	bodies := make([][]byte, service.DefaultCacheSize)
	for j := range bodies {
		b, err := json.Marshal(service.IdentifyRequest{JobSpec: w.in.hotSpec(j)})
		if err != nil {
			return err
		}
		bodies[j] = b
	}
	w.hotBody = bodies[:hotSpecs]
	w.hot = make([]service.IdentifyResponse, hotSpecs)
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := ci; k < len(bodies); k += len(cs) {
				j := (k + hotSpecs) % len(bodies)
				var out any
				if j < hotSpecs {
					out = &w.hot[j]
				}
				if err := c.postJSON(ctx, "/v1/identify", bodies[j], out); err != nil {
					errs[ci] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("filling the result cache: %w", err)
		}
	}
	return nil
}

func (w *identifyLoad) op(ctx context.Context, c *client, t *tally) {
	k := uint64(w.next.Add(1) - 1)
	draw := w.in.draw(streamHot, 1<<32+k)
	var resp service.IdentifyResponse
	t.ops++
	if draw&1 == 0 {
		j := int(draw>>1) % hotSpecs
		t0 := time.Now()
		err := c.postJSON(ctx, "/v1/identify", w.hotBody[j], &resp)
		lat := time.Since(t0)
		switch {
		case err != nil:
			t.fail(err)
		case resp.Text != w.hot[j].Text:
			t.fail(fmt.Errorf("hot spec %d answered %q, first answer %q", j, resp.Text, w.hot[j].Text))
		case !resp.Cached:
			// The fresh specs pushed it out of the server's LRU cache (4096
			// entries, about three seconds of misses), so it was probed again.
			t.ids++
			t.runs++
			t.recomputed++
			t.truth(resp, w.in.hotSpec(j).Server.Algorithm)
		default:
			t.ids++
			t.fetchMs = append(t.fetchMs, ms(lat))
			t.truth(resp, w.in.hotSpec(j).Server.Algorithm)
		}
		return
	}
	i := int(w.fresh.Add(1) - 1)
	spec := w.in.freshSpec(i)
	body, err := json.Marshal(service.IdentifyRequest{JobSpec: spec})
	if err != nil {
		t.fail(err)
		return
	}
	t0 := time.Now()
	err = c.postJSON(ctx, "/v1/identify", body, &resp)
	lat := time.Since(t0)
	switch {
	case err != nil:
		t.fail(err)
	case resp.Cached:
		t.fail(fmt.Errorf("fresh spec %d was served from the cache", i))
	default:
		t.ids++
		t.runs++
		t.opMs = append(t.opMs, ms(lat))
		t.truth(resp, spec.Server.Algorithm)
		if i < recordCap {
			w.served[i] = resp
		}
	}
}

// recorded is how many fresh answers were kept.
func (w *identifyLoad) recorded() int { return min(int(w.fresh.Load()), recordCap) }

func (w *identifyLoad) check(ctx context.Context, _ *client) error {
	sess := w.id.NewSession()
	for j := range w.hot {
		if err := sameIdentification(w.hot[j], inProcess(sess, w.in.hotSpec(j))); err != nil {
			return fmt.Errorf("hot spec %d: %w", j, err)
		}
	}
	for i := 0; i < w.recorded(); i += 61 {
		if err := sameIdentification(w.served[i], inProcess(sess, w.in.freshSpec(i))); err != nil {
			return fmt.Errorf("fresh spec %d: %w", i, err)
		}
	}
	return ctx.Err()
}

// replayIdentifyN bounds the fresh requests the identify replay repeats.
const replayIdentifyN = 600

func (w *identifyLoad) replaySpecs() []service.JobSpec {
	specs := make([]service.JobSpec, min(w.recorded(), replayIdentifyN))
	for i := range specs {
		specs[i] = w.in.freshSpec(i)
	}
	return specs
}

func (w *identifyLoad) replay() (replayer, []probePath, error) {
	specs := w.replaySpecs()
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("no fresh identify answers to replay")
	}
	paths := specPaths(specs)
	return replayIdentify(w.id, paths, w.served[:len(specs)]), paths, nil
}

// inProcess identifies spec through the library pipeline, as the service
// does for a request.
func inProcess(sess *core.Session, spec service.JobSpec) core.Identification {
	server, cond := pathOf(spec)
	return sess.Identify(server, cond, probeConfig, xrand.New(spec.Seed))
}

// specPaths lists the probe gatherings of wire specs.
func specPaths(specs []service.JobSpec) []probePath {
	out := make([]probePath, len(specs))
	for i, s := range specs {
		server, cond := pathOf(s)
		out[i] = probePath{server: server, cond: cond, rng: seeded(s.Seed)}
	}
	return out
}

// batchSize is the number of fresh specs per batch job.
const batchSize = 256

// batchLoad is bulk identification through the job queue: one outstanding
// POST /v1/batch of fresh specs, polled until done.
type batchLoad struct {
	in    *inputs
	id    *core.Identifier
	next  atomic.Int64
	mu    sync.Mutex
	first []service.IdentifyResponse // answers of job 0
}

func (w *batchLoad) conns() int                               { return 1 }
func (w *batchLoad) prepare(context.Context, []*client) error { return nil }

func (w *batchLoad) specs(k int) []service.JobSpec {
	specs := make([]service.JobSpec, batchSize)
	for j := range specs {
		specs[j] = w.in.freshSpec(k*batchSize + j)
	}
	return specs
}

func (w *batchLoad) op(ctx context.Context, c *client, t *tally) {
	k := int(w.next.Add(1) - 1)
	specs := w.specs(k)
	body, err := json.Marshal(service.BatchRequest{Jobs: specs})
	if err != nil {
		t.fail(err)
		return
	}
	t.ops++
	var clock stealClock
	clock.start()
	var acc service.BatchAccepted
	if err := c.postJSON(ctx, "/v1/batch", body, &acc); err != nil {
		t.fail(err)
		return
	}
	st, polls, fetch, err := c.waitJob(ctx, acc.JobID)
	d, steal := clock.stop()
	t.polls += polls
	switch {
	case err != nil:
		t.fail(err)
		return
	case st.Total != batchSize || len(st.Results) != batchSize || st.CacheHits != 0:
		t.fail(fmt.Errorf("batch job %s: %d results of %d, %d cache hits", acc.JobID, len(st.Results), st.Total, st.CacheHits))
		return
	}
	t.jobs++
	t.ids += batchSize
	t.runs += batchSize
	t.opMs = append(t.opMs, withoutSteal(ms(d), steal, -1))
	t.fetchMs = append(t.fetchMs, ms(fetch))
	for j, r := range st.Results {
		t.truth(r, specs[j].Server.Algorithm)
	}
	if k == 0 {
		w.mu.Lock()
		w.first = st.Results
		w.mu.Unlock()
	}
}

func (w *batchLoad) firstJob() ([]service.JobSpec, []service.IdentifyResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first == nil {
		return nil, nil, fmt.Errorf("the first batch job never completed")
	}
	return w.specs(0), w.first, nil
}

func (w *batchLoad) check(ctx context.Context, _ *client) error {
	specs, served, err := w.firstJob()
	if err != nil {
		return err
	}
	sess := w.id.NewSession()
	for j := 0; j < len(specs); j += 4 {
		if err := sameIdentification(served[j], inProcess(sess, specs[j])); err != nil {
			return fmt.Errorf("batch spec %d: %w", j, err)
		}
	}
	return ctx.Err()
}

func (w *batchLoad) replay() (replayer, []probePath, error) {
	specs, served, err := w.firstJob()
	if err != nil {
		return nil, nil, err
	}
	return replayBatch(w.id, specs, served), specPaths(specs), nil
}

// Census job shape: the population per job and the shard count.
const (
	censusServers = 1000
	censusWorkers = 2
)

// censusLoad is the paper's Table IV experiment: one outstanding POST
// /v1/census over a fresh population, polled until done.
type censusLoad struct {
	in    *inputs
	id    *core.Identifier
	next  atomic.Int64
	mu    sync.Mutex
	table string // Table IV of job 0
}

func (w *censusLoad) conns() int                               { return 1 }
func (w *censusLoad) prepare(context.Context, []*client) error { return nil }

// seedOf is census job k's seed (never 0, which the API normalizes).
func (w *censusLoad) seedOf(k int) int64 { return w.in.seed*100_003 + int64(k) + 1 }

// run submits one census and waits for it.
func (w *censusLoad) run(ctx context.Context, c *client, k int) (service.JobStatus, int, time.Duration, error) {
	body, err := json.Marshal(service.CensusRequest{Servers: censusServers, Seed: w.seedOf(k), Workers: censusWorkers})
	if err != nil {
		return service.JobStatus{}, 0, 0, err
	}
	var acc service.BatchAccepted
	if err := c.postJSON(ctx, "/v1/census", body, &acc); err != nil {
		return service.JobStatus{}, 0, 0, err
	}
	st, polls, fetch, err := c.waitJob(ctx, acc.JobID)
	if err == nil && (st.Census == nil || st.Census.Progress.Completed != censusServers || st.Census.TableIV == "") {
		err = fmt.Errorf("census job %s completed %d of %d targets", acc.JobID, st.Completed, censusServers)
	}
	return st, polls, fetch, err
}

func (w *censusLoad) op(ctx context.Context, c *client, t *tally) {
	k := int(w.next.Add(1) - 1)
	t.ops++
	var clock stealClock
	clock.start()
	st, polls, fetch, err := w.run(ctx, c, k)
	d, steal := clock.stop()
	t.polls += polls
	if err != nil {
		t.fail(err)
		return
	}
	t.jobs++
	t.ids += censusServers
	t.runs += censusServers
	t.opMs = append(t.opMs, withoutSteal(ms(d), steal, -1))
	t.fetchMs = append(t.fetchMs, ms(fetch))
	t.probes += st.Census.Progress.Probes
	t.steals += st.Census.Progress.Steals
	if k == 0 {
		w.mu.Lock()
		w.table = st.Census.TableIV
		w.mu.Unlock()
	}
}

func (w *censusLoad) firstTable() (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.table == "" {
		return "", fmt.Errorf("the first census never completed")
	}
	return w.table, nil
}

// check repeats the first census and requires a byte-identical Table IV.
func (w *censusLoad) check(ctx context.Context, c *client) error {
	want, err := w.firstTable()
	if err != nil {
		return err
	}
	st, _, _, err := w.run(ctx, c, 0)
	if err != nil {
		return err
	}
	if st.Census.TableIV != want {
		return fmt.Errorf("repeating census seed %d changed Table IV:\n%s\nfirst run:\n%s", w.seedOf(0), st.Census.TableIV, want)
	}
	return nil
}

// replay first checks that census.Run, the library's reference runner,
// repeats the service's Table IV for job 0's seed (the service documents
// that its census reproduces cmd/caai-census's table). It then replays
// that population under conditions and probe streams drawn from the run
// seed: census.Run's own per-target streams are internal to it.
func (w *censusLoad) replay() (replayer, []probePath, error) {
	table, err := w.firstTable()
	if err != nil {
		return nil, nil, err
	}
	ctx := experiments.NewContext()
	ctx.CensusServers, ctx.Seed = censusServers, w.seedOf(0)
	ctx.UseModel(w.id.Classifier())
	res, err := experiments.TableIV(ctx)
	if err != nil {
		return nil, nil, err
	}
	if got := res.Report.TableIV(); got != table {
		return nil, nil, fmt.Errorf("census.Run's Table IV for seed %d differs from the service's:\n%s\nservice:\n%s", ctx.Seed, got, table)
	}
	pop := make([]census.GroundTruth, len(res.Report.Outcomes))
	paths := make([]probePath, len(pop))
	for i, o := range res.Report.Outcomes {
		pop[i] = o.Truth
		paths[i] = w.in.censusPath(o.Truth.Server, i)
	}
	return replayCensus(w.id, pop, paths), paths, nil
}

// Capture sizes: the streamed capture holds two servers per algorithm, the
// uploaded one a few servers and stays under the upload cap.
const (
	streamServers = 28
	uploadServers = 4
	uploadCap     = 16 << 20
)

// captureLoad is passive identification: one connection alternating a
// streamed capture (POST /v1/pcap/stream, NDJSON answers) and an uploaded
// one (POST /v1/pcap, polled job).
type captureLoad struct {
	in             *inputs
	id             *core.Identifier
	stream, upload *capture
}

func newCaptureLoad(in *inputs, id *core.Identifier) (*captureLoad, error) {
	stream, err := in.makeCapture(id, 0, 0, streamServers)
	if err != nil {
		return nil, err
	}
	upload, err := in.makeCapture(id, 1<<16, int(in.seed%int64(len(in.algs))), uploadServers)
	if err != nil {
		return nil, err
	}
	if len(upload.data) > uploadCap {
		return nil, fmt.Errorf("upload capture of %d bytes exceeds the %d-byte cap", len(upload.data), uploadCap)
	}
	return &captureLoad{in: in, id: id, stream: stream, upload: upload}, nil
}

func (w *captureLoad) conns() int                               { return 1 }
func (w *captureLoad) prepare(context.Context, []*client) error { return nil }

func (w *captureLoad) op(ctx context.Context, c *client, t *tally) {
	t.ops++
	var clock stealClock
	clock.start()
	flows, stats, err := w.streamOnce(ctx, c)
	d, steal := clock.stop()
	differ := 0
	if err == nil {
		differ, err = w.stream.checkStream(flows, stats)
	}
	if err != nil {
		t.fail(fmt.Errorf("stream: %w", err))
	} else {
		t.ids += len(w.stream.specs)
		t.runs += len(flows)
		t.opMs = append(t.opMs, withoutSteal(ms(d), steal, -1))
		t.streamBytes += int64(len(w.stream.data))
		t.streamTime += d
		t.streamServers += len(w.stream.specs)
		t.streamDiffer += differ
		w.truths(t, w.stream, flows)
	}

	t.ops++
	t0 := time.Now()
	var acc service.PcapAccepted
	if err := c.do(ctx, http.MethodPost, "/v1/pcap", "application/octet-stream", bytes.NewReader(w.upload.data), &acc); err != nil {
		t.fail(err)
		return
	}
	st, polls, fetch, err := c.waitJob(ctx, acc.JobID)
	upload := time.Since(t0)
	t.polls += polls
	if err == nil {
		err = w.upload.checkOffline(st.Results)
	}
	if err != nil {
		t.fail(fmt.Errorf("upload: %w", err))
		return
	}
	t.jobs++
	t.ids += len(w.upload.specs)
	t.runs += len(st.Results)
	t.fetchMs = append(t.fetchMs, ms(fetch))
	t.uploadBytes += int64(len(w.upload.data))
	t.uploadTime += upload
	w.truths(t, w.upload, st.Results)
}

// truths tallies flow answers against the algorithms that produced them.
func (w *captureLoad) truths(t *tally, c *capture, flows []service.IdentifyResponse) {
	for _, f := range flows {
		t.truth(f, c.algorithm[f.Server])
	}
}

// streamOnce streams the capture and reads the NDJSON answer through its
// final summary line.
func (w *captureLoad) streamOnce(ctx context.Context, c *client) ([]service.IdentifyResponse, flow.CaptureStats, error) {
	var none flow.CaptureStats
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/pcap/stream", bytes.NewReader(w.stream.data))
	if err != nil {
		return nil, none, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, none, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, none, fmt.Errorf("status %d", resp.StatusCode)
	}
	var flows []service.IdentifyResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, none, fmt.Errorf("decoding NDJSON line: %w", err)
		}
		switch {
		case ev.Error != "":
			return nil, none, fmt.Errorf("stream failed: %s", ev.Error)
		case ev.Flow != nil:
			flows = append(flows, *ev.Flow)
		case ev.Capture != nil:
			return flows, *ev.Capture, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, none, err
	}
	return nil, none, fmt.Errorf("stream ended without a capture summary")
}

// check has nothing left to do: every answer was checked as it arrived.
func (w *captureLoad) check(ctx context.Context, _ *client) error { return ctx.Err() }

// replay replays both captures through the /v1/pcap pipeline; the probe
// gatherings are the ones the capture generator recorded.
func (w *captureLoad) replay() (replayer, []probePath, error) {
	var paths []probePath
	for _, c := range []*capture{w.stream, w.upload} {
		for _, s := range c.specs {
			paths = append(paths, probePath{server: websim.Testbed(s.Algorithm), cond: s.Cond, rng: seeded(s.Seed)})
		}
	}
	return replayCapture(w.id.Classifier(), w.stream, w.upload), paths, nil
}
