package engine

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/channel"
)

// BenchmarkMeshFanOut prices one message through the mesh at the sharded
// benchmark workload's footprint: eight 100-process meshes (79,200
// channels) visited round-robin, one op being a 99-message fan-out from one
// process and the 99 deliveries that drain it. A bench that reuses one hot
// FIFO cannot see what a channel's memory layout costs; this one can. 800
// ops are one pass over the channels, so -benchtime 800x prices a channel's
// first message (what a freshly built mesh pays, and a sharded repetition
// builds eight) and a long run prices a warm one.
func BenchmarkMeshFanOut(b *testing.B) {
	const shards, n = 8, 100
	type msg struct{ a, b, c, d, e, f int64 } // the size of a tme.Message
	meshes := make([]*Mesh[msg], shards)
	for s := range meshes {
		core := New(int64(s + 1))
		m := NewMesh[msg](core, n, 1, 5, 1)
		core.SetHandler(func(ev *Event) {
			m.Recv(channel.Endpoint{Src: int(ev.A), Dst: int(ev.B)})
		})
		meshes[s] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := meshes[i%shards]
		src := i / shards % n
		for dst := 0; dst < n; dst++ {
			m.Send(src, dst, msg{a: int64(i)}) // the self endpoint is refused
		}
		if got := m.core.Run(m.core.Now() + 5); got != n-1 {
			b.Fatalf("delivered %d of %d", got, n-1)
		}
	}
}
