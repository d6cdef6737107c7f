package lamport

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// BenchmarkLamportInsert measures queue insertion under the one-entry-per-
// process discipline.
func BenchmarkLamportInsert(b *testing.B) {
	nd := New(0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := 1 + i%63
		nd.Deliver(tme.Message{
			Kind: tme.Request,
			TS:   ltime.Timestamp{Clock: uint64(i), PID: from},
			From: from, To: 0,
		})
	}
}
