package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveArgs launch caai-serve the way the benchmark measures it: a model
// trained in-process at startup (so setup_s covers training), on a free
// loopback port (train in main.go mirrors the model for the replay). The
// workloads keep one job outstanding and fetch it as soon as it is done,
// so retaining two finished jobs is enough; it keeps rss_mb measuring the
// workload's working set rather than how many finished jobs a run of a
// given length has piled up.
var serveArgs = []string{"-train", "12", "-seed", "2011", "-addr", "127.0.0.1:0", "-retain", "2"}

// server is one running caai-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// drained closes once the child's stdout is fully read.
	drained chan struct{}
}

// launch starts caai-serve and returns once GET /healthz answers 200.
func launch(ctx context.Context, bin string) (*server, error) {
	cmd := exec.Command(bin, serveArgs...)
	cmd.Stderr = os.Stderr
	// The child must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		const marker = "listening on http://"
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				addr, _, _ := strings.Cut(line[i+len(marker):], " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()

	fail := func(err error) (*server, error) {
		s.stop()
		return nil, err
	}
	deadline := time.NewTimer(2 * time.Minute)
	defer deadline.Stop()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.drained:
		return fail(fmt.Errorf("caai-serve exited before listening"))
	case <-deadline.C:
		return fail(fmt.Errorf("caai-serve did not start listening within 2 minutes"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-deadline.C:
			return fail(fmt.Errorf("GET /healthz never answered 200"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// pid returns the child's process ID.
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the child to shut down (SIGTERM), kills it after 10 s, and
// waits until it has exited and its output is drained.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	<-s.drained
}

// procCPU returns the user+system CPU time of process pid from
// /proc/<pid>/stat (clock ticks at the kernel's fixed USER_HZ of 100).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procRSS returns the resident set size of process pid in MB.
func procRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// rssSampler polls a process's RSS at 10 Hz and keeps the samples since
// the last take.
type rssSampler struct {
	mu      sync.Mutex
	samples []float64
	stop    chan struct{}
	done    chan struct{}
}

func startRSSSampler(pid int) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, err := procRSS(pid); err == nil {
				r.mu.Lock()
				r.samples = append(r.samples, mb)
				r.mu.Unlock()
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// take returns the samples since the previous take and starts a new
// window.
func (r *rssSampler) take() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.samples
	r.samples = nil
	return s
}

// close stops the sampler and waits for its goroutine.
func (r *rssSampler) close() {
	close(r.stop)
	<-r.done
}
