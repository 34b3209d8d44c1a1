package session_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"tokenarbiter/internal/session"
	"tokenarbiter/internal/wire"
)

// rawClient completes the session handshake on a fresh pipe to the
// rig's server and returns the client end, whose frames the test writes
// and reads by hand: unlike a session.Client, it reads nothing unless
// told to.
func (r *rig) rawClient() (net.Conn, *wire.Encoder) {
	r.t.Helper()
	cli, srv := net.Pipe()
	r.t.Cleanup(func() { _ = cli.Close() })
	r.srv.ServeConn(srv)
	if _, err := wire.ClientHandshake(cli, -1, session.Algo); err != nil {
		r.t.Fatalf("handshake: %v", err)
	}
	return cli, wire.BinaryCodec().NewEncoder(cli, session.Algo)
}

// TestSlowConsumerEvicted: a client that stops reading its responses
// costs the server at most its write queue. Once more frames are due
// than Config.WriteQueue holds, the server closes the connection
// instead of blocking or buffering without bound, counts the eviction
// once, and still shuts down promptly.
func TestSlowConsumerEvicted(t *testing.T) {
	const queue = 4
	r := newRig(t, func(c *session.Config) { c.WriteQueue = queue })
	_, enc := r.rawClient()

	// Each request is answered with one AcquireResp (CodeUnknownSession),
	// and the client reads none of them. The server keeps reading, so
	// the writes go through until it hangs up.
	const limit = 100 * queue
	sent := 0
	for ; sent < limit; sent++ {
		if err := enc.Encode(0, session.AcquireReq{Seq: uint64(sent + 1), Session: 99, Key: "k"}); err != nil {
			break
		}
	}
	if sent == limit {
		t.Fatalf("server still reading after %d unanswered requests; want it to hang up past %d queued frames", limit, queue)
	}
	if sent <= queue {
		t.Fatalf("server hung up after %d requests, within its write queue of %d", sent, queue)
	}
	waitUntil(t, "the server to drop the connection", func() bool {
		return r.gauge("session_conns_active") == 0
	})
	if got := r.counter("session_slow_consumer_closes_total"); got != 1 {
		t.Errorf("session_slow_consumer_closes_total = %d, want 1", got)
	}
	closed := make(chan struct{})
	go func() {
		_ = r.srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5 s after evicting a slow consumer")
	}
}

// TestFramesQueuedDuringAWriteLeaveInOne: while the server's writer is
// blocked in a Write the client does not read, the frames that become
// ready meanwhile wait for it, and once the client reads they leave
// together in the writer's next Write. session_writes_total and
// session_frames_written_total count exactly that.
func TestFramesQueuedDuringAWriteLeaveInOne(t *testing.T) {
	r := newRig(t, nil)
	cli, enc := r.rawClient()
	request := func(seq uint64) {
		t.Helper()
		if err := enc.Encode(0, session.AcquireReq{Seq: seq, Session: 99, Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}

	// The first response's Write starts, then blocks: the client reads
	// one byte of it and no more.
	request(1)
	var first [1]byte
	if _, err := io.ReadFull(cli, first[:]); err != nil {
		t.Fatal(err)
	}
	const more = 5
	for seq := uint64(2); seq <= 1+more; seq++ {
		request(seq)
	}
	waitUntil(t, "the later responses to queue behind the blocked write", func() bool {
		return r.srv.QueuedFrames() == more
	})

	dec := wire.BinaryCodec().NewDecoder(io.MultiReader(bytes.NewReader(first[:]), cli), session.Algo)
	for seq := uint64(1); seq <= 1+more; seq++ {
		_, msg, err := dec.Decode()
		if err != nil {
			t.Fatalf("response %d: %v", seq, err)
		}
		if resp, ok := msg.(session.AcquireResp); !ok || resp.Seq != seq || resp.Code != session.CodeUnknownSession {
			t.Fatalf("response %d: got %#v", seq, msg)
		}
	}
	waitUntil(t, "the second write to be counted", func() bool {
		return r.counter("session_writes_total") == 2
	})
	if got := r.counter("session_frames_written_total"); got != 1+more {
		t.Errorf("session_frames_written_total = %d, want %d (one write of 1, one of %d)", got, 1+more, more)
	}
}
