package wire

import (
	"bytes"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// allocRuns is the AllocsPerRun count; each run consumes one frame of a
// pre-encoded stream, and AllocsPerRun makes one extra warm-up call.
const allocRuns = 100

// streamMessages returns allocRuns+1 distinct encodable messages.
func streamMessages() []tme.Message {
	msgs := make([]tme.Message, allocRuns+1)
	for i := range msgs {
		msgs[i] = tme.Message{
			Kind:     tme.Kind(1 + i%3),
			TS:       ltime.Timestamp{Clock: uint64(10 * i), PID: i % 5},
			From:     i % 5,
			To:       (i + 1) % 5,
			Resource: i % 2,
		}
	}
	return msgs
}

// TestCodecAllocatesNothing holds every step of the per-message codec chain
// to zero allocations: v1 frame encode and payload decode, the v1 stream
// reader, and the v2 encoder and stream reader. Each reader consumes one
// frame per run and must return the message that was encoded.
func TestCodecAllocatesNothing(t *testing.T) {
	msgs := streamMessages()
	check := func(name string, fn func(i int) tme.Message) {
		t.Helper()
		i := 0
		allocs := testing.AllocsPerRun(allocRuns, func() {
			if got := fn(i); got != msgs[i] {
				t.Fatalf("%s: message %d = %+v, want %+v", name, i, got, msgs[i])
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.0f per message, want 0", name, allocs)
		}
	}

	buf := make([]byte, 0, FrameSize)
	check("v1 AppendFrame+DecodePayload", func(i int) tme.Message {
		out, err := AppendFrame(buf[:0], msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodePayload(out[lenPrefixSize:])
		if err != nil {
			t.Fatal(err)
		}
		return m
	})

	var v1 []byte
	for _, m := range msgs {
		v1, _ = AppendFrame(v1, m)
	}
	r := NewReader(bytes.NewReader(v1))
	check("Reader.ReadMessage", func(int) tme.Message {
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		return m
	})

	enc := NewV2Encoder()
	v2buf := make([]byte, 0, maxV2Frame)
	check("V2Encoder.AppendFrame", func(i int) tme.Message {
		if _, err := enc.AppendFrame(v2buf[:0], msgs[i]); err != nil {
			t.Fatal(err)
		}
		return msgs[i]
	})

	var v2 []byte
	enc = NewV2Encoder()
	for _, m := range msgs {
		v2, _ = enc.AppendFrame(v2, m)
	}
	r2 := NewV2Reader(bytes.NewReader(v2))
	check("V2Reader.ReadMessage", func(int) tme.Message {
		m, err := r2.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
}

// TestEncodeBatchAllocatesNothing: the edge sender's batch encode appends
// into a reused frame buffer and filters the batch in place, under both
// codecs.
func TestEncodeBatchAllocatesNothing(t *testing.T) {
	batch := streamMessages()[:32]
	var tr Transport // nil instruments: publishing is a no-op
	for _, c := range []struct {
		name string
		enc  *V2Encoder
	}{{"v1", nil}, {"v2", NewV2Encoder()}} {
		frames := make([]byte, 0, len(batch)*FrameSize)
		allocs := testing.AllocsPerRun(allocRuns, func() {
			var kept []tme.Message
			var err error
			frames, kept, err = tr.encodeBatch(frames[:0], batch, c.enc)
			if err != nil || len(kept) != len(batch) || len(frames) == 0 {
				t.Fatalf("%s: encodeBatch kept %d of %d, %d bytes, err %v", c.name, len(kept), len(batch), len(frames), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s encodeBatch allocates %.0f per batch, want 0", c.name, allocs)
		}
	}
}
