// Package seeded is the repository's one seeded-stream constructor. A
// stream is math/rand/v2's PCG (16 bytes of state, seeded in two words)
// wrapped as a math/rand Source, so every consumer keeps drawing through a
// *math/rand.Rand with the methods and signatures it always had.
//
// Streams are cheap enough to hold by value and to seed eagerly: an owner
// embeds a Stream in its own struct, so the owner and all its streams are
// one allocation, and no stream is created lazily on first draw. Named
// streams derive their seed as seed XOR FNV-1a(name) (Derive), so each
// subsystem draws from its own stream and adding draws to one cannot move
// another's: the PartitionedRNG isolation property.
package seeded

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// source is a math/rand Source64 over a PCG generator.
type source struct{ pcg randv2.PCG }

// Seed reseeds the source. The two PCG words are the seed and a SplitMix64
// scramble of it, so nearby seeds start far apart in the state space.
func (s *source) Seed(seed int64) { s.pcg.Seed(uint64(seed), mix64(uint64(seed))) }

// Uint64 returns 64 uniformly random bits.
func (s *source) Uint64() uint64 { return s.pcg.Uint64() }

// Int63 returns a non-negative 63-bit value.
func (s *source) Int63() int64 { return int64(s.pcg.Uint64() & (1<<63 - 1)) }

// Stream is one seeded random stream, held by value: a math/rand Rand over
// its own inline source. Init binds the Rand to the source by address, so a
// Stream must not be copied after Init; owners embed it and hand out Rand().
type Stream struct {
	src source
	r   rand.Rand
}

// Init seeds the stream and returns its generator.
func (s *Stream) Init(seed int64) *rand.Rand {
	s.src.Seed(seed)
	s.r = *rand.New(&s.src)
	return &s.r
}

// Rand returns the stream's generator. It is valid after Init.
func (s *Stream) Rand() *rand.Rand { return &s.r }

// New returns the generator of a fresh heap stream seeded with seed, for
// owners that keep a *rand.Rand rather than a Stream.
func New(seed int64) *rand.Rand { return new(Stream).Init(seed) }

// Derive returns the seed of the stream named name under seed: seed XOR
// the 64-bit FNV-1a hash of name.
func Derive(seed int64, name string) int64 { return seed ^ int64(Hash(name)) }

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns the 64-bit FNV-1a hash of name (hash/fnv's New64a).
func Hash(name string) uint64 { return Extend(fnvOffset, name) }

// Extend continues an FNV-1a hash h over part, so a caller can hash a name
// built from pieces without building it: Extend(Hash(a), b) == Hash(a+b).
func Extend[T string | []byte](h uint64, part T) uint64 {
	for i := 0; i < len(part); i++ {
		h ^= uint64(part[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is SplitMix64's output function.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
