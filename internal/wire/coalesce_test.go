package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/obs"
)

// errStranded reports a future that never completed: a request lost
// between enqueue and flush on either end of the connection.
var errStranded = errors.New("no response: request stranded")

// awaitFuture is Future.Response bounded by d, so a stranded request shows
// up as errStranded instead of hanging the test binary.
func awaitFuture(f *Future, d time.Duration) (Response, error) {
	select {
	case <-f.done:
		return f.resp, f.err
	case <-time.After(d):
		return Response{}, errStranded
	}
}

// waitOrFail waits for wg, failing the test if that takes longer than d —
// producers blocked behind a stranded request never finish.
func waitOrFail(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("producers still blocked after %v: a request was stranded", d)
	}
}

// TestCoalesceManyPipelinesMixed runs text and binary pipelines, several
// producers each, against one server. Every future must get its own
// response: the ID each submit was answered with must be the ID the
// recipient later finds on the message carrying that submit's subject.
func TestCoalesceManyPipelinesMixed(t *testing.T) {
	s, err := NewServerWith("127.0.0.1:0", []string{"s1", "s2"}, ServerConfig{WireWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const pipes, producers, per = 6, 3, 60
	var wg sync.WaitGroup
	errs := make(chan error, pipes*producers+pipes) // at most one per goroutine
	for pi := 0; pi < pipes; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			text := pi%2 == 0
			c, err := DialOptions(s.Addr(), Options{TextOnly: text})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			from, to := fmt.Sprintf("R1.h1.from%d", pi), fmt.Sprintf("R1.h1.to%d", pi)
			for _, u := range []string{from, to} {
				if err := c.Register(u); err != nil {
					errs <- err
					return
				}
			}
			p, err := c.Pipeline(context.Background(), 8)
			if err != nil {
				errs <- err
				return
			}
			if c.BinaryFraming() == text {
				errs <- fmt.Errorf("pipe %d: binary framing = %v, want %v", pi, c.BinaryFraming(), !text)
				return
			}
			var mu sync.Mutex
			idOf := make(map[string]string) // subject → ID the future reported
			var pwg sync.WaitGroup
			for g := 0; g < producers; g++ {
				pwg.Add(1)
				go func(g int) {
					defer pwg.Done()
					futs := make([]*Future, per)
					for i := range futs {
						futs[i] = p.Submit(from, []string{to}, fmt.Sprintf("p%d-g%d-%d", pi, g, i), "b")
					}
					for i, f := range futs {
						resp, err := awaitFuture(f, 10*time.Second)
						if err != nil {
							errs <- fmt.Errorf("pipe %d g%d #%d: %w", pi, g, i, err)
							return
						}
						mu.Lock()
						idOf[fmt.Sprintf("p%d-g%d-%d", pi, g, i)] = resp.ID
						mu.Unlock()
					}
				}(g)
			}
			pwg.Wait()
			if err := p.Close(); err != nil {
				errs <- err
				return
			}
			msgs, err := c.GetMail(to)
			if err != nil {
				errs <- err
				return
			}
			if len(msgs) != producers*per {
				errs <- fmt.Errorf("pipe %d: delivered %d of %d", pi, len(msgs), producers*per)
				return
			}
			for _, m := range msgs {
				if want := idOf[m.Subject]; m.ID != want {
					errs <- fmt.Errorf("pipe %d: %s delivered as %s, its future said %q", pi, m.Subject, m.ID, want)
					return
				}
			}
		}(pi)
	}
	waitOrFail(t, &wg, 30*time.Second)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPipelineDoAfterCloseFailsClosed: every Do after Close — and every Do
// racing Close — completes, either with a response or errPipelineClosed;
// none panics or hangs.
func TestPipelineDoAfterCloseFailsClosed(t *testing.T) {
	s := newServer(t)
	for _, text := range []bool{false, true} {
		c, err := DialOptions(s.Addr(), Options{TextOnly: text})
		if err != nil {
			t.Fatal(err)
		}
		pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")
		p, err := c.Pipeline(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		const producers, per = 4, 100
		var wg sync.WaitGroup
		var once sync.Once
		started := make(chan struct{})
		futs := make(chan *Future, producers*per) // one slot per Submit
		for g := 0; g < producers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					futs <- p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "s", "b")
					once.Do(func() { close(started) })
				}
			}()
		}
		<-started // Close races producers that are mid-stream
		if err := p.Close(); err != nil {
			t.Fatalf("text=%v close: %v", text, err)
		}
		waitOrFail(t, &wg, 10*time.Second)
		close(futs)
		for f := range futs {
			if _, err := awaitFuture(f, 10*time.Second); err != nil && !errors.Is(err, errPipelineClosed) {
				t.Fatalf("text=%v: Do racing Close: %v", text, err)
			}
		}
		for i := 0; i < 10; i++ {
			if _, err := p.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "s", "b").Response(); !errors.Is(err, errPipelineClosed) {
				t.Fatalf("text=%v: Do after Close: err=%v, want errPipelineClosed", text, err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatalf("text=%v: second Close: %v", text, err)
		}
		_ = c.Close()
	}
}

// gatedConn holds the pipeline writer inside Write until the test opens
// the gate, so requests issued meanwhile are provably still buffered.
type gatedConn struct {
	net.Conn
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedConn) Write(b []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.Conn.Write(b)
}

// TestPipelineCloseDeliversBuffered: requests still sitting in the pending
// buffer when Close is called are written, answered and delivered.
func TestPipelineCloseDeliversBuffered(t *testing.T) {
	s := newServer(t)
	for _, text := range []bool{false, true} {
		c, err := DialOptions(s.Addr(), Options{TextOnly: text})
		if err != nil {
			t.Fatal(err)
		}
		to := "R1.h1.bob" + strconv.FormatBool(text)
		pipelineRegister(t, c, "R1.h1.alice", to)
		p, err := c.Pipeline(context.Background(), 16)
		if err != nil {
			t.Fatal(err)
		}
		g := &gatedConn{Conn: c.conn, entered: make(chan struct{}), gate: make(chan struct{})}
		c.conn = g
		const n = 10
		futs := []*Future{p.Submit("R1.h1.alice", []string{to}, "0", "b")}
		<-g.entered // the writer holds request 0; the rest must queue behind it
		for i := 1; i < n; i++ {
			futs = append(futs, p.Submit("R1.h1.alice", []string{to}, strconv.Itoa(i), "b"))
		}
		p.wmu.Lock()
		buffered := p.nout
		p.wmu.Unlock()
		if buffered != n-1 {
			t.Fatalf("text=%v: %d requests buffered behind the writer, want %d", text, buffered, n-1)
		}
		closed := make(chan error, 1)
		go func() { closed <- p.Close() }()
		close(g.gate)
		if err := <-closed; err != nil {
			t.Fatalf("text=%v close: %v", text, err)
		}
		for i, f := range futs {
			if _, err := awaitFuture(f, 5*time.Second); err != nil {
				t.Fatalf("text=%v future %d: %v", text, i, err)
			}
		}
		msgs, err := c.GetMail(to)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != n {
			t.Fatalf("text=%v: delivered %d of %d", text, len(msgs), n)
		}
		for i, m := range msgs {
			if m.Subject != strconv.Itoa(i) {
				t.Fatalf("text=%v: position %d holds %s: order broken", text, i, m.Subject)
			}
		}
		_ = c.Close()
	}
}

// serverConn finds the server side of the client connection whose local
// address is addr.
func serverConn(t *testing.T, s *Server, addr net.Addr) *connState {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		for conn, st := range s.conns {
			if conn.RemoteAddr().String() == addr.String() {
				s.mu.Unlock()
				return st
			}
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server has no connection from %v", addr)
	return nil
}

// depositBig leaves one message of about size bytes in user's mailbox.
func depositBig(t *testing.T, c *Client, user string, size int) {
	t.Helper()
	pipelineRegister(t, c, "R1.h1.alice", user)
	if _, err := c.Submit("R1.h1.alice", []string{user}, "big", strings.Repeat("x", size)); err != nil {
		t.Fatal(err)
	}
}

// TestWriteStallClosesConnection: a peer that stops reading has its
// connection closed by the write-stall deadline, and the server keeps
// serving everyone else.
func TestWriteStallClosesConnection(t *testing.T) {
	old := writeStallTimeout
	writeStallTimeout = 200 * time.Millisecond
	s, err := NewServer("127.0.0.1:0", []string{"s1"})
	writeStallTimeout = old
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := newClient(t, s)
	depositBig(t, c, "R1.h1.bob", 900<<10)

	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.(*net.TCPConn).SetReadBuffer(4096)
	st := serverConn(t, s, raw.LocalAddr())
	// Shrink the server's send buffer too, so the ~900 KiB response cannot
	// disappear into kernel buffers and the writer has to block.
	_ = st.conn.(*net.TCPConn).SetWriteBuffer(8192)
	if _, err := raw.Write([]byte(`{"op":"getmail","user":"R1.h1.bob"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	// Never read raw. The stalled write must time out and close it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		_, open := s.conns[st.conn]
		s.mu.Unlock()
		if !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled connection still open 10s past a 200ms write-stall deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Register("R1.h1.carol"); err != nil {
		t.Fatalf("server after closing the stalled peer: %v", err)
	}
}

// TestConnWriterNoLostWakeup hammers one connection's writer from many
// producers through an unbuffered pipe, so the writer is busy in nearly
// every Write while producers append — the flush-versus-enqueue window. Every
// frame must reach the peer.
func TestConnWriterNoLostWakeup(t *testing.T) {
	srvEnd, peer := net.Pipe()
	s := &Server{bytesOut: obs.NewRegistry().Counter("wire_bytes_out"), writeStall: time.Minute}
	st := newConnState(s, srvEnd)
	const producers, per = 8, 2000
	got := make(chan int, 1)
	go func() {
		cr := newConnReader(peer)
		defer cr.release()
		n := 0
		for n < producers*per {
			if _, err := cr.readLine(); err != nil {
				break
			}
			n++
		}
		got <- n
	}()
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.writeText(Response{OK: true, ID: strconv.Itoa(i)})
				if i%64 == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}()
	}
	waitOrFail(t, &wg, 30*time.Second)
	select {
	case n := <-got:
		if n != producers*per {
			t.Fatalf("peer read %d of %d frames", n, producers*per)
		}
	case <-time.After(20 * time.Second):
		st.wmu.Lock()
		left := len(st.out)
		st.wmu.Unlock()
		t.Fatalf("frames stranded in the output buffer (%d bytes) with no writer wakeup", left)
	}
	st.stop()
	_ = srvEnd.Close()
	_ = peer.Close()
}

// TestPipelineNoLostWakeup is the end-to-end version over TCP: shallow
// pipelines (1 and 3 in flight) with concurrent producers, every future
// bounded by a deadline, in both framings.
func TestPipelineNoLostWakeup(t *testing.T) {
	s := newServer(t)
	for _, text := range []bool{false, true} {
		for _, depth := range []int{1, 3} {
			c, err := DialOptions(s.Addr(), Options{TextOnly: text})
			if err != nil {
				t.Fatal(err)
			}
			pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")
			p, err := c.Pipeline(context.Background(), depth)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 250; i++ {
						f := p.Do(Request{Op: "checkmail", User: "R1.h1.bob", Server: "s1"})
						if _, err := awaitFuture(f, 10*time.Second); err != nil {
							t.Errorf("text=%v depth=%d: %v", text, depth, err)
							return
						}
					}
				}()
			}
			waitOrFail(t, &wg, 30*time.Second)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			_ = c.Close()
		}
	}
}

// TestWireBytesOutCountsCoalescedWrites: wire_bytes_out equals the bytes of
// every response frame the peer received, with many frames per write.
func TestWireBytesOutCountsCoalescedWrites(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", []string{"s1"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	cr := newConnReader(raw)
	defer cr.release()
	received := 0
	for _, line := range []string{
		`{"op":"register","user":"R1.h1.alice"}`,
		`{"op":"register","user":"R1.h1.bob"}`,
		`{"op":"hello","version":3,"binary":true}`,
	} {
		if _, err := raw.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		resp, err := cr.readLine()
		if err != nil {
			t.Fatal(err)
		}
		received += len(resp) + 1
	}
	// One write carrying many frames, so responses pile up and coalesce.
	var reqs []byte
	const n = 300
	for i := 0; i < n; i++ {
		req := Request{Op: "submit", From: "R1.h1.alice", To: []string{"R1.h1.bob"}, Subject: strconv.Itoa(i), Body: "b"}
		switch i % 3 {
		case 1:
			req = Request{Op: "getmail", User: "R1.h1.bob"}
		case 2:
			req = Request{Op: "status"}
		}
		if reqs, err = AppendBinaryRequest(reqs, req, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(reqs); err != nil {
		t.Fatal(err)
	}
	frame := getFrameBuf()
	defer putFrameBuf(frame)
	for i := 0; i < n; i++ {
		payload, err := cr.readFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, tag, err := DecodeBinaryResponse(payload); err != nil || tag != uint32(i+1) {
			t.Fatalf("frame %d: tag %d err %v", i, tag, err)
		}
		received += binHdrLen + len(payload) + binCRCLen
	}
	_ = raw.Close()
	s.Close() // waits for the connection's writer, so the counter is final
	if got := s.bytesOut.Value(); got != int64(received) {
		t.Fatalf("wire_bytes_out = %d, peer received %d bytes of responses", got, received)
	}
}

// TestRetainedBuffersBounded: after a ~900 KiB getmail response, in either
// framing, the connection keeps at most maxRetainedBuf of output buffer,
// and the frame pool refuses the large read buffer.
func TestRetainedBuffersBounded(t *testing.T) {
	s := newServer(t)
	for _, text := range []bool{false, true} {
		c, err := DialOptions(s.Addr(), Options{TextOnly: text})
		if err != nil {
			t.Fatal(err)
		}
		user := "R1.h1.bob" + strconv.FormatBool(text)
		depositBig(t, c, user, 900<<10)
		p, err := c.Pipeline(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := p.Do(Request{Op: "getmail", User: user}).Response()
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Messages) != 1 || len(resp.Messages[0].Body) != 900<<10 {
			t.Fatalf("text=%v: getmail returned %d messages", text, len(resp.Messages))
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		st := serverConn(t, s, c.conn.LocalAddr())
		st.wmu.Lock()
		r := cap(st.out) + cap(st.spare)
		st.wmu.Unlock()
		if r > maxRetainedBuf {
			t.Fatalf("text=%v: connection retains %d bytes of output buffer after the getmail, want ≤ %d", text, r, maxRetainedBuf)
		}
		p.wmu.Lock()
		r = cap(p.out) + cap(p.spare)
		p.wmu.Unlock()
		if r > maxRetainedBuf {
			t.Fatalf("text=%v: pipeline retains %d bytes of request buffer", text, r)
		}
		_ = c.Close()
	}
	big := make([]byte, 0, 1<<20)
	putFrameBuf(&big)
	for i := 0; i < 100; i++ {
		if b := getFrameBuf(); cap(*b) > maxRetainedBuf {
			t.Fatalf("frame pool handed out a %d-byte buffer", cap(*b))
		}
	}
}
