package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
)

// client is one HTTP/1.1 connection to the server: the transport allows a
// single connection, so a workload's connection count is the number of
// clients it drives.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// close releases the client's connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). Any other status is an error carrying the body.
func (c *client) do(ctx context.Context, method, path, ctype string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

func (c *client) postJSON(ctx context.Context, path string, body []byte, out any) error {
	return c.do(ctx, http.MethodPost, path, "application/json", bytes.NewReader(body), out)
}

func (c *client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, "", nil, out)
}

// pollInterval is how often a client polls an async job.
const pollInterval = 10 * time.Millisecond

// waitJob polls GET /v1/jobs/{id} until the job leaves the queued and
// running states. It returns the final status, the number of polls, and
// the latency of the final poll (the one that fetched the finished job).
func (c *client) waitJob(ctx context.Context, id string) (service.JobStatus, int, time.Duration, error) {
	polls := 0
	for {
		var st service.JobStatus
		t0 := time.Now()
		err := c.get(ctx, "/v1/jobs/"+id, &st)
		lat := time.Since(t0)
		polls++
		if err != nil {
			return st, polls, lat, err
		}
		switch st.State {
		case service.StateDone:
			return st, polls, lat, nil
		case service.StateQueued, service.StateRunning:
		default:
			return st, polls, lat, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return st, polls, lat, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// metrics reads the server's JSON counter snapshot.
func (c *client) metrics(ctx context.Context) (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	err := c.get(ctx, "/metrics", &m)
	return m, err
}
