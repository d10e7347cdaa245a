package service

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/census"
	"repro/internal/census/shard"
	"repro/internal/netem"
)

// MaxCensusServers caps one census job's population. The full paper-scale
// study (63 124 servers) still fits; anything beyond it is an operator
// workload, not an API request.
const MaxCensusServers = 100_000

// MaxCensusWorkers caps one census job's worker count. Each worker is a
// goroutine with its own probe session, and the engine clamps the count
// only to the population size, so without this bound one request could
// start a hundred thousand of them.
const MaxCensusWorkers = 64

// MaxCensusAttempts and MaxCensusDeferrals cap one census job's retry
// taxonomy. Every retry of a target waits up to 5 s of backoff and grows
// its probe budget, so without these bounds one request could hold a
// job-queue worker for as long as the process lives.
const (
	MaxCensusAttempts  = 16
	MaxCensusDeferrals = 64
)

// censusState is the census payload of a job: the accepted request plus
// the live coordinator, published once the run starts so status polls can
// read progress and partial tables while probing is in flight.
type censusState struct {
	req   CensusRequest
	coord atomic.Pointer[shard.Coordinator]
}

// augment fills the census slice of a job status. Coordinator snapshots
// are safe concurrently with the run; the partial Table IV covers exactly
// the targets completed so far.
func (cs *censusState) augment(st *JobStatus) {
	c := cs.coord.Load()
	if c == nil {
		st.Census = &CensusStatus{}
		return
	}
	p := c.Progress()
	st.Completed = p.Completed
	out := &CensusStatus{Progress: p}
	if p.Completed > 0 {
		out.TableIV = c.Report().TableIV()
	}
	st.Census = out
}

// handleCensus accepts POST /v1/census: validate, enqueue on the shared
// job queue, answer 202 with the usual job envelope. Progress and the
// (partial) table are polled through GET /v1/jobs/{id}.
func (s *Service) handleCensus(w http.ResponseWriter, r *http.Request) {
	var req CensusRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	j, err := s.submitCensus(r.Context(), req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, BatchAccepted{
		JobID:  j.id,
		Status: "/v1/jobs/" + j.id,
		Total:  j.total,
	})
}

// validateCensus rejects malformed census requests at submission time so
// they answer 400/404 instead of becoming failed jobs.
func (s *Service) validateCensus(req CensusRequest) error {
	if _, err := s.registry.Get(req.Model); err != nil {
		return err
	}
	if req.Servers <= 0 {
		return fmt.Errorf("census.servers must be positive")
	}
	if req.Servers > MaxCensusServers {
		return fmt.Errorf("census of %d servers exceeds the %d-server limit", req.Servers, MaxCensusServers)
	}
	if req.Workers < 0 || req.MaxAttempts < 0 || req.MaxDeferrals < 0 {
		return fmt.Errorf("census workers, max_attempts and max_deferrals must be non-negative")
	}
	if req.Workers > MaxCensusWorkers {
		return fmt.Errorf("census of %d workers exceeds the %d-worker limit", req.Workers, MaxCensusWorkers)
	}
	if req.MaxAttempts > MaxCensusAttempts || req.MaxDeferrals > MaxCensusDeferrals {
		return fmt.Errorf("census max_attempts and max_deferrals are limited to %d and %d", MaxCensusAttempts, MaxCensusDeferrals)
	}
	if err := req.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

// submitCensus validates and enqueues one census job.
func (s *Service) submitCensus(ctx context.Context, req CensusRequest) (*job, error) {
	if err := s.validateCensus(req); err != nil {
		s.metrics.batchRejected.Add(1)
		return nil, err
	}
	if req.Seed == 0 {
		req.Seed = 2011 // the paper-year default every command uses
	}
	j, err := s.enqueue(ctx, &job{
		model:  req.Model,
		kind:   "census",
		run:    s.runCensus,
		census: &censusState{req: req},
		total:  req.Servers,
	})
	if err == nil {
		s.metrics.censusJobs.Add(1)
	}
	return j, err
}

// runCensus executes one accepted census job through the sharded
// coordinator, mirroring its counters into the service-wide census
// metrics sink so /metrics aggregates retry, backoff and abandonment
// across every campaign.
func (s *Service) runCensus(j *job, model *Model) error {
	req := j.census.req
	popCfg := census.DefaultPopulationConfig()
	popCfg.Servers = req.Servers
	popCfg.Seed = req.Seed + 77 // experiments.TableIV's derivation
	pop := census.GeneratePopulation(popCfg)

	coord, err := shard.New(pop, model.Identifier(), netem.MeasuredDatabase(), shard.Config{
		Workers:      req.Workers,
		Seed:         req.Seed + 99, // experiments.TableIV's probing seed
		MaxAttempts:  req.MaxAttempts,
		MaxDeferrals: req.MaxDeferrals,
		Fault:        req.Fault,
		Metrics:      &s.metrics.census,
		Trace:        s.flight,
		TraceID:      j.trace,
	})
	if err != nil {
		// The request was validated at submission; only population-scale
		// misconfiguration could land here.
		return err
	}
	j.census.coord.Store(coord)
	return coord.Run(j.ctx)
}
