package service

import (
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/flow"
	"repro/internal/telemetry"
)

// handlePcap accepts a raw pcap/pcapng capture (octet-stream body),
// reassembles its TCP flows while streaming the upload -- the decoder
// never buffers the whole file -- and enqueues the paired flows as an
// async classification job on the batch queue. The response is the same
// 202 + job envelope POST /v1/batch uses; per-flow results appear in the
// job payload. ?model= selects the registry model.
func (s *Service) handlePcap(w http.ResponseWriter, r *http.Request) {
	s.metrics.pcapUploads.Add(1)
	modelName := r.URL.Query().Get("model")
	if _, err := s.registry.Get(modelName); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}

	// The same body bound every JSON endpoint enforces; the decoder reads
	// incrementally so only its one-block buffer is resident. The counting
	// wrapper feeds the ingest-throughput metrics (bytes over decode time).
	body := countingReader{http.MaxBytesReader(w, r.Body, maxBodyBytes), s.metrics.pcapBytes}
	decodeStart := time.Now()
	flows, stats, err := flow.Reassemble(body, flow.Config{})
	decodeSpan := time.Since(decodeStart)
	s.metrics.pcapDecode.Observe(decodeSpan)
	s.metrics.pcapFlowsSeen.Add(stats.Flows)
	s.metrics.pcapFlowsClassifiable.Add(stats.Classifiable)
	if err != nil {
		s.metrics.pcapDecodeErrors.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "%v", errBodyTooLarge)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding capture: %v", err)
		return
	}
	if stats.Flows == 0 {
		writeError(w, http.StatusBadRequest, "capture holds no TCP flows")
		return
	}

	pairs := flow.Pair(flows)
	j, err := s.enqueue(r.Context(), &job{
		model:      modelName,
		kind:       "pcap",
		run:        s.runPcap,
		pcap:       pairs,
		total:      len(pairs),
		gatherSpan: decodeSpan,
	})
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, PcapAccepted{
		BatchAccepted: BatchAccepted{
			JobID:  j.id,
			Status: "/v1/jobs/" + j.id,
			Total:  len(pairs),
		},
		Stats: stats,
	})
}

// PcapAccepted is the POST /v1/pcap response: the async job envelope plus
// the capture's decode statistics (available immediately, unlike the
// classifications).
type PcapAccepted struct {
	BatchAccepted
	Stats flow.CaptureStats `json:"capture"`
}

// runPcap executes one accepted capture job: every flow pair is
// classified in capture order on the job's worker, and the results then
// land in the job's progress counter. Classification of reconstructed
// traces needs no probing, so capture jobs drain quickly even between
// long probe batches.
func (s *Service) runPcap(j *job, model *Model) error {
	version := model.Version()
	err := flow.ClassifyAll(j.ctx, j.pcap, model.Identifier(), flow.ClassifyOptions{
		Timings:    true,
		Telemetry:  &s.metrics.pipeline,
		GatherSpan: j.gatherSpan,
		OnResult: func(i int) {
			resp := toFlowResponse(version, j.pcap[i])
			s.metrics.identifies.Add(1)
			s.metrics.countLabel(resp)
			j.complete(i, resp, false)
		},
	})
	// The pairs (cloned traces, endpoint strings) are only needed to fill
	// results; dropping them here keeps the finished-job retention window
	// from pinning whole captures' worth of dead flow state.
	j.pcap = j.pcap[:0:0]
	return err
}

// toFlowResponse renders one classified flow pair on the wire: the shared
// identification envelope plus the flow-level metadata.
func toFlowResponse(modelVersion string, p flow.FlowIdentification) IdentifyResponse {
	resp := toResponse(modelVersion, p.A.Server, p.ID)
	info := &FlowInfo{
		ClientA:     p.A.Client,
		Packets:     p.A.Packets,
		Retransmits: p.A.Retransmits,
		RTTMs:       float64(p.A.RTT) / float64(time.Millisecond),
		Rounds:      p.A.Rounds,
		Start:       p.A.Start.UTC().Format(time.RFC3339Nano),
	}
	if p.B != nil {
		info.ClientB = p.B.Client
		info.Packets += p.B.Packets
		info.Retransmits += p.B.Retransmits
	}
	resp.Flow = info
	return resp
}

// countingReader adds every read of a capture body to its counter as
// the read lands, so the counter advances while a long upload runs.
type countingReader struct {
	r io.Reader
	n *telemetry.Counter
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// FlowInfo is the per-flow metadata attached to capture-job results.
type FlowInfo struct {
	// ClientA and ClientB are the client endpoints of the paired
	// environment A and B connections (B empty when unpaired).
	ClientA string `json:"client_a"`
	ClientB string `json:"client_b,omitempty"`
	// Packets and Retransmits cover the pair.
	Packets     int64 `json:"packets"`
	Retransmits int64 `json:"retransmits,omitempty"`
	// RTTMs is the A flow's RTT estimate in milliseconds.
	RTTMs float64 `json:"rtt_ms"`
	// Rounds is the number of reconstructed RTT rounds of the A flow.
	Rounds int `json:"rounds"`
	// Start is the A flow's first activity in the capture.
	Start string `json:"start"`
}
