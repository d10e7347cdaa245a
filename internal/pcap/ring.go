package pcap

import (
	"errors"
	"io"
	"sync"
)

// ErrRingClosed is returned by Ring.Write and Ring.ReadFrom after the
// write side closed.
var ErrRingClosed = errors.New("pcap: ring closed")

// Ring is a bounded in-memory byte ring connecting a capture producer
// (an HTTP request body, stdin) to the streaming decoder. Writes block
// while the ring is full and reads block while it is empty, so the pair
// gives a streaming pipeline end-to-end backpressure with one fixed
// buffer: a slow decoder stalls the producer instead of growing memory,
// and an unbounded capture never needs to be resident at once.
//
// The producer either copies bytes in with Write or lets ReadFrom read
// its source straight into the ring's free space. A Reader built over a
// Ring frames records in place, out of the ring's filled span, so a
// byte fed through ReadFrom is copied once: from its source into the
// ring.
//
// One writer and one reader may use the ring concurrently. Close ends
// the stream cleanly (the reader drains, then sees io.EOF);
// CloseWithError aborts both sides immediately.
type Ring struct {
	mu     sync.Mutex
	nempty sync.Cond // signaled when bytes (or EOF) become readable
	nfull  sync.Cond // signaled when space becomes writable
	buf    []byte
	r, w   int // cursors; w chases r modulo len(buf)
	n      int // bytes buffered
	high   int // most bytes ever buffered
	closed bool
	err    error
}

// NewRing returns a ring buffering up to size bytes (floored at 4 KiB).
func NewRing(size int) *Ring {
	if size < 4<<10 {
		size = 4 << 10
	}
	g := &Ring{buf: make([]byte, size)}
	g.nempty.L = &g.mu
	g.nfull.L = &g.mu
	return g
}

// reserve blocks while the ring is full and returns the contiguous free
// span at the write cursor. The writer fills a prefix of it without the
// lock and hands the count to commit; the span is free space, so the
// reader never touches it meanwhile. It returns ErrRingClosed after
// Close and the abort error after CloseWithError.
func (g *Ring) reserve() ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.n == len(g.buf) && g.err == nil && !g.closed {
		g.nfull.Wait()
	}
	if g.err != nil {
		return nil, g.err
	}
	if g.closed {
		return nil, ErrRingClosed
	}
	if g.w < g.r {
		return g.buf[g.w:g.r], nil
	}
	return g.buf[g.w:], nil
}

// commit publishes n bytes the writer put at the front of its reserved
// span.
func (g *Ring) commit(n int) {
	if n == 0 {
		return
	}
	g.mu.Lock()
	g.w = (g.w + n) % len(g.buf)
	g.n += n
	g.high = max(g.high, g.n)
	g.mu.Unlock()
	g.nempty.Signal()
}

// Write copies p into the ring, blocking while it is full. It returns
// ErrRingClosed after Close and the abort error after CloseWithError.
func (g *Ring) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		span, err := g.reserve()
		if err != nil {
			return written, err
		}
		n := copy(span, p)
		g.commit(n)
		p = p[n:]
		written += n
	}
	return written, nil
}

// ReadFrom reads src straight into the ring's free space until src
// returns io.EOF, blocking while the ring is full; each src.Read runs
// without the lock. It returns nil at src's EOF, src's error otherwise,
// and ErrRingClosed or the abort error as Write does.
func (g *Ring) ReadFrom(src io.Reader) (int64, error) {
	var total int64
	for {
		span, err := g.reserve()
		if err != nil {
			return total, err
		}
		n, err := src.Read(span)
		g.commit(n)
		total += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// peek blocks until at least n bytes are buffered and returns the
// contiguous filled span at the read cursor, which may be shorter than
// n when the buffered bytes wrap the ring's end. The bytes stay
// buffered, and the writer leaves them alone, until discard hands them
// back. n must not exceed the ring size. When the stream ends or aborts
// first it returns what is buffered with io.EOF, or the abort error.
func (g *Ring) peek(n int) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.n < n && g.err == nil && !g.closed {
		g.nempty.Wait()
	}
	if g.err != nil {
		return nil, g.err
	}
	span := g.buf[g.r:min(g.r+g.n, len(g.buf))]
	if g.n < n {
		return span, io.EOF
	}
	return span, nil
}

// discard frees the first n buffered bytes (n no more than a preceding
// peek returned).
func (g *Ring) discard(n int) {
	if n == 0 {
		return
	}
	g.mu.Lock()
	g.r = (g.r + n) % len(g.buf)
	g.n -= n
	g.mu.Unlock()
	g.nfull.Signal()
}

// Read copies buffered bytes into p, blocking while the ring is empty.
// After Close it drains the remaining bytes and then returns io.EOF;
// after CloseWithError it returns the abort error immediately.
func (g *Ring) Read(p []byte) (int, error) {
	span, err := g.peek(1)
	if err != nil {
		return 0, err // empty and closed, or aborted
	}
	n := copy(p, span)
	g.discard(n)
	return n, nil
}

// Close ends the write side: subsequent writes fail and the reader sees
// io.EOF once the buffered bytes drain.
func (g *Ring) Close() error {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.nempty.Broadcast()
	g.nfull.Broadcast()
	return nil
}

// CloseWithError aborts both sides: blocked and future reads and writes
// return err (io.ErrClosedPipe when nil) without draining.
func (g *Ring) CloseWithError(err error) {
	if err == nil {
		err = io.ErrClosedPipe
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.closed = true
	g.mu.Unlock()
	g.nempty.Broadcast()
	g.nfull.Broadcast()
}

// HighWater returns the most bytes the ring has ever buffered.
func (g *Ring) HighWater() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.high
}

// Buffered returns the bytes currently buffered.
func (g *Ring) Buffered() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}
