package ltime

import "testing"

// BenchmarkTimestampLess measures the total-order comparison.
func BenchmarkTimestampLess(b *testing.B) {
	x := Timestamp{Clock: 3, PID: 1}
	y := Timestamp{Clock: 3, PID: 2}
	for i := 0; i < b.N; i++ {
		if !x.Less(y) {
			b.Fatal("order broke")
		}
	}
}
