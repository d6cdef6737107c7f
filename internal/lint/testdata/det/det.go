// Package sim is a determinism-pass fixture. Its import path places it
// under the determinism contract, so wall-clock reads, the global
// math/rand source, order-leaking map iteration, and unsanctioned
// goroutine spawns must all be flagged — and the seeded/sorted/ParMap
// forms must not.
package sim

import (
	"math/rand"
	"time"

	"example.com/fix/internal/missing"
)

// Clock reads the wall clock, which the contract forbids.
func Clock() int64 {
	return time.Now().UnixNano() // want:determinism "time.Now reads the wall clock"
}

// ClockSuppressed is the ignore-directive twin of Clock.
func ClockSuppressed() int64 {
	//gblint:ignore determinism fixture: sanctioned wall-clock read
	return time.Now().UnixNano()
}

// ClockMisspelled's ignore names no known pass: the directive is a finding
// of its own and suppresses nothing, so the wall-clock read is still
// reported.
func ClockMisspelled() int64 {
	//gblint:ignore determinsm fixture: a typo must not switch checks off // want:ignore "suppresses nothing"
	return time.Now().UnixNano() // want:determinism "time.Now reads the wall clock"
}

// Waits waits on the wall clock every way the time package offers.
func Waits(f func()) {
	time.Sleep(time.Millisecond)            // want:determinism "time.Sleep waits on the wall clock"
	<-time.After(time.Millisecond)          // want:determinism "time.After waits on the wall clock"
	time.AfterFunc(time.Millisecond, f)     // want:determinism "time.AfterFunc waits on the wall clock"
	time.NewTimer(time.Millisecond).Stop()  // want:determinism "time.NewTimer waits on the wall clock"
	time.NewTicker(time.Millisecond).Stop() // want:determinism "time.NewTicker waits on the wall clock"
	<-time.Tick(time.Millisecond)           // want:determinism "live one is an internal/wallclock Timer"
}

// Elapsing reads the wall clock through Since and Until.
func Elapsing(t time.Time) time.Duration {
	return time.Since(t) + time.Until(t) // want:determinism "time.Since reads the wall clock" // want:determinism "time.Until reads the wall clock"
}

// WaitSuppressed is the ignore-directive twin of Waits.
func WaitSuppressed() {
	//gblint:ignore determinism fixture: sanctioned wall-clock wait
	time.Sleep(time.Millisecond)
}

// Elapsed uses time arithmetic that never reads the clock: allowed.
func Elapsed(d time.Duration) int64 { return d.Nanoseconds() }

// GlobalRand draws from the global math/rand source.
func GlobalRand() int {
	return rand.Intn(6) // want:determinism "global math/rand source: use a seeded stream (seeded.New(seed)"
}

// SeededRand is the sanctioned form: an explicit seeded generator.
func SeededRand(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(6)
}

// Spawn starts a goroutine outside the sanctioned spawner.
func Spawn(ch chan int) {
	go post(ch) // want:determinism "goroutine"
}

// ParMap is the sanctioned spawner name, so its go statement is allowed.
func ParMap(ch chan int) {
	go post(ch)
}

func post(ch chan int) { ch <- 1 }

// MapOrder appends under map iteration: the slice order leaks map order.
func MapOrder(m map[int]int) []int {
	var out []int
	for k := range m { // want:determinism "map iteration appends"
		out = append(out, k)
	}
	return out
}

// MapSum folds commutatively over a map: order cannot leak, allowed.
func MapSum(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// MapOpaque ranges over a value whose type never resolves (the import is
// unresolvable): the map check must stay silent rather than guess.
func MapOpaque() []int {
	var out []int
	for k := range missing.Table() {
		out = append(out, k)
	}
	return out
}

// SliceOrder ranges over a slice, not a map: allowed.
func SliceOrder(s []int) []int {
	var out []int
	for _, v := range s {
		out = append(out, v)
	}
	return out
}
