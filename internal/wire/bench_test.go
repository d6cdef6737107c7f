package wire

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// benchWindow bounds how far the sender may run ahead of the receiver, so
// the unbounded edge queue cannot eat gigabytes at large b.N while the
// wire stays saturated enough to measure peak throughput.
const benchWindow = 1 << 15

// BenchmarkTransportThroughput measures end-to-end loopback throughput:
// one transport pair, b.N messages from process 0 to process 1, timed until
// the last delivery. The msgs/sec metric is the headline number; allocs/op
// and bytes/op expose per-message overhead of the send/recv chain.
func BenchmarkTransportThroughput(b *testing.B) {
	t0, err := NewTransport(Config{N: 2, Local: []int{0}})
	if err != nil {
		b.Fatal(err)
	}
	t1, err := NewTransport(Config{N: 2, Local: []int{1}})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = t0.Close(); _ = t1.Close() }()
	addrs := []string{t0.Addr(), t1.Addr()}
	t0.SetPeers(addrs)
	t1.SetPeers(addrs)

	var recvd atomic.Int64
	t0.Start(func(int, tme.Message) {})
	t1.Start(func(int, tme.Message) { recvd.Add(1) })

	// Prime the edge (dial, first frame) outside the timed region.
	t0.Send(tme.Message{Kind: tme.Request, From: 0, To: 1})
	waitCount(b, &recvd, 1)
	recvd.Store(0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0.Send(tme.Message{
			Kind: tme.Request,
			TS:   ltime.Timestamp{Clock: uint64(i), PID: 0},
			From: 0, To: 1,
		})
		if i&1023 == 1023 {
			for int64(i)-recvd.Load() > benchWindow {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	waitCount(b, &recvd, int64(b.N))
	elapsed := b.Elapsed()
	b.StopTimer()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "msgs/sec")
	}
}

// waitCount spins until c reaches want (the receive side is asynchronous).
func waitCount(b *testing.B, c *atomic.Int64, want int64) {
	deadline := time.Now().Add(2 * time.Minute)
	for c.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d messages before timeout", c.Load(), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// BenchmarkCodecRoundTrip measures one encode+decode round trip per codec
// with reused buffers: the per-frame CPU floor under all transport
// batching.
func BenchmarkCodecRoundTrip(b *testing.B) {
	msg := func(i int) tme.Message {
		return tme.Message{
			Kind: tme.Request,
			TS:   ltime.Timestamp{Clock: uint64(i), PID: i & 3},
			From: i & 3, To: (i + 1) & 3,
		}
	}
	b.Run("v1", func(b *testing.B) {
		buf := make([]byte, 0, FrameSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := msg(i)
			out, err := AppendFrame(buf[:0], m)
			if err != nil {
				b.Fatal(err)
			}
			got, err := DecodePayload(out[lenPrefixSize:])
			if err != nil {
				b.Fatal(err)
			}
			if got != m {
				b.Fatalf("round trip: %+v != %+v", got, m)
			}
		}
	})
	b.Run("v2", func(b *testing.B) {
		buf := make([]byte, 0, maxV2Frame)
		enc := NewV2Encoder()
		br := bytes.NewReader(nil)
		dec := NewV2Reader(br)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := msg(i)
			out, err := enc.AppendFrame(buf[:0], m)
			if err != nil {
				b.Fatal(err)
			}
			br.Reset(out)
			got, err := dec.ReadMessage()
			if err != nil {
				b.Fatal(err)
			}
			if got != m {
				b.Fatalf("round trip: %+v != %+v", got, m)
			}
		}
	})
}
