package pcap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

func TestRingRoundTrip(t *testing.T) {
	g := NewRing(4 << 10)
	// 1 MiB through a 4 KiB ring: the writer must block and resume.
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		for off := 0; off < len(payload); off += 1000 {
			end := off + 1000
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := g.Write(payload[off:end]); err != nil {
				t.Errorf("Write: %v", err)
				return
			}
		}
		g.Close()
	}()
	got, err := io.ReadAll(g)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("ring corrupted the stream: %d bytes, want %d", len(got), len(payload))
	}
	if hw := g.HighWater(); hw <= 0 || hw > 4<<10 {
		t.Fatalf("high water = %d, want in (0, %d]", hw, 4<<10)
	}
}

func TestRingCloseUnblocksReader(t *testing.T) {
	g := NewRing(0)
	done := make(chan error, 1)
	go func() {
		var b [16]byte
		_, err := g.Read(b[:])
		done <- err
	}()
	g.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("Read after Close = %v, want EOF", err)
	}
	if _, err := g.Write([]byte("x")); err != ErrRingClosed {
		t.Fatalf("Write after Close = %v, want ErrRingClosed", err)
	}
}

func TestRingCloseWithErrorAborts(t *testing.T) {
	g := NewRing(0)
	if _, err := g.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("client went away")
	g.CloseWithError(boom)
	var b [16]byte
	if _, err := g.Read(b[:]); err != boom {
		t.Fatalf("Read after abort = %v, want the abort error (no drain)", err)
	}
	if _, err := g.Write([]byte("x")); err != boom {
		t.Fatalf("Write after abort = %v, want the abort error", err)
	}
}

func TestRingBlockedWriterAborts(t *testing.T) {
	g := NewRing(0) // 4 KiB floor
	done := make(chan error, 1)
	go func() {
		_, err := g.Write(make([]byte, 64<<10)) // must block at 4 KiB
		done <- err
	}()
	boom := errors.New("abort")
	g.CloseWithError(boom)
	if err := <-done; err != boom {
		t.Fatalf("blocked Write unblocked with %v, want abort error", err)
	}
}

func TestRingReadFromRoundTrip(t *testing.T) {
	payload := make([]byte, 128<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	sources := map[string]func(io.Reader) io.Reader{
		"bytes":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"odd":      func(r io.Reader) io.Reader { return stepReader{r, 1000} },
	}
	for name, wrap := range sources {
		t.Run(name, func(t *testing.T) {
			// 128 KiB through a 4 KiB ring: ReadFrom must block and
			// resume, wrapping the ring 32 times.
			g := NewRing(4 << 10)
			done := make(chan error, 1)
			go func() {
				n, err := g.ReadFrom(wrap(bytes.NewReader(payload)))
				if err == nil && n != int64(len(payload)) {
					err = fmt.Errorf("ReadFrom moved %d bytes, want %d", n, len(payload))
				}
				g.Close()
				done <- err
			}()
			got, err := io.ReadAll(g)
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("ring corrupted the stream: %d bytes, want %d", len(got), len(payload))
			}
			if hw := g.HighWater(); hw <= 0 || hw > 4<<10 {
				t.Fatalf("high water = %d, want in (0, %d]", hw, 4<<10)
			}
		})
	}
}

// TestRingBlockedReadFromCloses parks ReadFrom on a full ring, with its
// source still holding bytes, and closes the ring under it.
func TestRingBlockedReadFromCloses(t *testing.T) {
	boom := errors.New("abort")
	for _, tc := range []struct {
		name  string
		close func(*Ring)
		want  error
	}{
		{"abort", func(g *Ring) { g.CloseWithError(boom) }, boom},
		{"close", func(g *Ring) { g.Close() }, ErrRingClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewRing(0) // 4 KiB floor
			done := make(chan error, 1)
			go func() {
				_, err := g.ReadFrom(bytes.NewReader(make([]byte, 64<<10)))
				done <- err
			}()
			for g.Buffered() < 4<<10 {
				runtime.Gosched()
			}
			tc.close(g)
			if err := <-done; err != tc.want {
				t.Fatalf("blocked ReadFrom unblocked with %v, want %v", err, tc.want)
			}
			if hw := g.HighWater(); hw != 4<<10 {
				t.Fatalf("high water = %d, want the ring size %d", hw, 4<<10)
			}
		})
	}
}
