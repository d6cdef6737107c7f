package ra

import "testing"

// BenchmarkNodeDeliver measures one RA request delivery round-trip.
func BenchmarkNodeDeliver(b *testing.B) {
	sender := New(0, 2)
	msgs := sender.RequestCS()
	receiver := New(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		receiver.Deliver(msgs[0])
	}
}
