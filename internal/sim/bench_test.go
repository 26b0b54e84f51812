package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEngineSchedule measures the schedule→pop cycle of the event loop
// in steady state, the innermost cost of every simulated message. With the
// event free-list the per-event allocation disappears once the queue has
// reached its working size.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%64)*time.Microsecond, fn)
		if e.Pending() >= 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineQueueKinds A/Bs the bucketed calendar queue against the
// retained binary heap on the same workload at growing backlog sizes; the
// gap is the tentpole win of the bucketed store (heap ops are O(log n) in
// the backlog, bucket ops O(1) amortized).
func BenchmarkEngineQueueKinds(b *testing.B) {
	for _, kind := range []struct {
		name      string
		newEngine func(seed int64) *Engine
	}{{"bucket", NewEngine}, {"heap", newHeapEngine}} {
		for _, backlog := range []int{1024, 16384} {
			b.Run(fmt.Sprintf("%s/backlog=%d", kind.name, backlog), func(b *testing.B) {
				e := kind.newEngine(1)
				fn := func() {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.After(time.Duration(i%64)*time.Microsecond, fn)
					if e.Pending() >= backlog {
						e.Run()
					}
				}
				e.Run()
			})
		}
	}
}

// BenchmarkEngineTimerChain measures a self-rescheduling callback (the shape
// of every Ticker and maintenance loop): each pop immediately reuses its
// event for the next tick.
func BenchmarkEngineTimerChain(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Millisecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(time.Millisecond, tick)
	e.Run()
}
