package wrapper

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ra"
)

// BenchmarkWrapperGuard measures one W evaluation over a hungry view.
func BenchmarkWrapperGuard(b *testing.B) {
	nd := ra.New(0, 16)
	nd.RequestCS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if msgs := W(nd); len(msgs) == 0 {
			b.Fatal("guard unexpectedly closed")
		}
	}
}
