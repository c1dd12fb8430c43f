package wire

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// benchBurst pumps b.N messages through a pipelined client: the wire path's
// msgs/sec microbenchmark (bodies 512B, matching make bench-wire).
func benchBurst(b *testing.B, textOnly bool, batch, inflight int) {
	s, err := NewServerWith("127.0.0.1:0", []string{"s1"}, ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := DialOptions(s.Addr(), Options{TextOnly: textOnly})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("R1.h1.from"); err != nil {
		b.Fatal(err)
	}
	// Spread deposits over several sinks: one mailbox absorbing the whole
	// burst measures slice-growth pathology, not the wire path.
	const sinks = 16
	tos := make([][]string, sinks)
	for i := range tos {
		u := fmt.Sprintf("R1.h1.sink%d", i)
		if err := c.Register(u); err != nil {
			b.Fatal(err)
		}
		tos[i] = []string{u}
	}
	p, err := c.Pipeline(context.Background(), inflight)
	if err != nil {
		b.Fatal(err)
	}
	body := strings.Repeat("m", 512)
	b.ReportAllocs()
	b.ResetTimer()
	futs := make([]*Future, 0, b.N/batch+1)
	pending := make([]int, sinks) // deposits per sink since its last drain
	for sent := 0; sent < b.N; {
		si := (sent / batch) % sinks
		to := tos[si]
		if batch == 1 {
			futs = append(futs, p.Submit("R1.h1.from", to, "b", body))
			sent++
		} else {
			msgs := make([]BatchMsg, batch)
			for i := range msgs {
				msgs[i] = BatchMsg{To: to, Subject: "b", Body: body}
			}
			futs = append(futs, p.SubmitBatch("R1.h1.from", msgs))
			sent += batch
		}
		// Recipients read their mail: drain each sink every 64 deposits so
		// mailboxes stay bounded, as in any live system.
		if pending[si] += batch; pending[si] >= 64 {
			pending[si] = 0
			futs = append(futs, p.Do(Request{Op: "getmail", User: to[0]}))
		}
	}
	for _, f := range futs {
		if _, err := f.Response(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBurstTextB1(b *testing.B)    { benchBurst(b, true, 1, 32) }
func BenchmarkBurstTextB16(b *testing.B)   { benchBurst(b, true, 16, 32) }
func BenchmarkBurstBinaryB1(b *testing.B)  { benchBurst(b, false, 1, 32) }
func BenchmarkBurstBinaryB16(b *testing.B) { benchBurst(b, false, 16, 32) }

// BenchmarkBurstBinaryInflight1 is the sequential caller's rung: one request
// in flight at a time, as a request-response client sees the wire path.
func BenchmarkBurstBinaryInflight1(b *testing.B) { benchBurst(b, false, 1, 1) }
