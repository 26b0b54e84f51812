package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// heapQueue is the reference pending-event store: the original binary
// min-heap (O(log n) per operation). The equivalence property test replays
// identical traces against it and the bucketed calendar queue, and the
// benchmarks A/B the two.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }
func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}
func (q *heapQueue) front() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}
func (q *heapQueue) nextAt() (time.Duration, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}
func (q *heapQueue) len() int { return len(q.h) }

// newHeapEngine is NewEngine on the reference heap store.
func newHeapEngine(seed int64) *Engine {
	e := NewEngine(seed)
	e.events = &heapQueue{}
	return e
}

// traceRun drives one engine through a pseudo-random schedule/cancel/run
// trace and returns the execution log: one "<label>@<now>" entry per
// callback, in execution order. The trace generator draws from its own
// rand.Rand (not the engine's) so both queue kinds see byte-identical
// inputs; the log captures the queue's observable behavior completely —
// execution order and clock value at each firing.
func traceRun(newEngine func(seed int64) *Engine, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	e := newEngine(1)
	var log []string
	var label int

	// Delays mix the scales the simulator really uses: sub-bucket (ns),
	// intra-wheel (µs..ms), and far-future overflow (seconds..minutes),
	// plus exact ties and zero delays.
	randDelay := func() time.Duration {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.Intn(4096)) // inside one bucket
		case 2:
			return time.Duration(rng.Intn(1e6)) // µs..ms, within the wheel
		case 3:
			return time.Duration(rng.Intn(50)) * time.Millisecond // ties likely
		case 4:
			return time.Duration(rng.Intn(120)) * time.Second // overflow heap
		default:
			return time.Duration(rng.Int63n(int64(10 * time.Minute)))
		}
	}

	var tickers []*Ticker
	var schedule func(depth int)
	schedule = func(depth int) {
		label++
		l := label
		d := randDelay()
		reschedule := depth < 3 && rng.Intn(3) == 0
		fn := func() {
			log = append(log, fmt.Sprintf("%d@%d", l, e.Now()))
			if reschedule {
				schedule(depth + 1)
			}
		}
		if rng.Intn(8) == 0 {
			// Ticker intervals stay ≥1ms so bounded RunUntil windows below
			// produce bounded tick counts.
			t := e.Every(time.Duration(rng.Intn(50)+1)*time.Millisecond, fn)
			tickers = append(tickers, t)
		} else if rng.Intn(2) == 0 {
			e.After(d, fn)
		} else {
			e.At(e.Now()+d, fn)
		}
	}

	for op := 0; op < 400; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			schedule(0)
		case 6: // cancel a random live ticker
			if len(tickers) > 0 {
				tickers[rng.Intn(len(tickers))].Stop()
			}
		case 7: // partial run over a bounded window (live tickers keep firing)
			e.RunUntil(e.Now() + time.Duration(rng.Intn(1e8)))
		case 8:
			for i := 0; i < rng.Intn(20); i++ {
				if !e.Step() {
					break
				}
			}
		case 9:
			if p := e.Pending(); p > 0 {
				log = append(log, fmt.Sprintf("pending=%d@%d", p, e.Now()))
			}
		}
	}
	// Drain. Callbacks may create further tickers mid-drain, so stop every
	// known ticker before each step; each new ticker fires at most once.
	for {
		for _, t := range tickers {
			t.Stop()
		}
		if !e.Step() {
			break
		}
	}
	return log
}

// TestQueueEquivalence replays identical randomized traces against the
// binary heap and the bucketed calendar queue; the two stores must execute
// every callback in the same order at the same virtual times.
func TestQueueEquivalence(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		heapLog := traceRun(newHeapEngine, seed)
		bucketLog := traceRun(NewEngine, seed)
		if len(heapLog) != len(bucketLog) {
			t.Fatalf("seed %d: heap executed %d callbacks, bucket %d",
				seed, len(heapLog), len(bucketLog))
		}
		for i := range heapLog {
			if heapLog[i] != bucketLog[i] {
				t.Fatalf("seed %d: divergence at entry %d: heap %q, bucket %q",
					seed, i, heapLog[i], bucketLog[i])
			}
		}
	}
}

// TestBucketQueueOverflowMigration pins the wheel/overflow boundary: events
// far beyond the wheel horizon must still run in timestamp order, including
// events scheduled behind an already-peeked empty stretch.
func TestBucketQueueOverflowMigration(t *testing.T) {
	e := NewEngine(1)
	var got []time.Duration
	record := func() { got = append(got, e.Now()) }
	// Far future (overflow), near future (wheel), and same bucket.
	e.After(10*time.Minute, record)
	e.After(time.Millisecond, record)
	e.After(1, record)
	// Peek far ahead via RunUntil past all wheel events, then schedule
	// earlier than the remaining overflow event.
	e.RunUntil(time.Second)
	e.After(time.Second, record) // at 2s, before the 10-minute event
	e.Run()
	want := []time.Duration{1, time.Millisecond, 2 * time.Second, 10 * time.Minute}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}
