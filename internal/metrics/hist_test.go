package metrics

import (
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 || s.Max() != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond, time.Millisecond} {
		h.Record(d)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Max() != time.Millisecond {
		t.Fatalf("max = %v, want 1ms", s.Max())
	}
	if m := s.Mean(); m < 200*time.Microsecond || m > 300*time.Microsecond {
		t.Fatalf("mean = %v, want ~251µs", m)
	}
	// The p50 target rank lands in the 2µs bucket; log buckets bound the
	// estimate within a factor of two.
	if q := s.Quantile(0.5); q < time.Microsecond || q > 4*time.Microsecond {
		t.Fatalf("p50 = %v, want within [1µs, 4µs]", q)
	}
	if q := s.Quantile(1.0); q != time.Millisecond {
		t.Fatalf("p100 = %v, want clamped to max 1ms", q)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(-time.Second) // clamped to 0, bucket 0
	h.Record(0)
	h.Record(time.Duration(1) << 62) // beyond the last bucket boundary
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Counts[0] != 2 || s.Counts[HistBuckets-1] != 1 {
		t.Fatalf("bucket spread wrong: first=%d last=%d", s.Counts[0], s.Counts[HistBuckets-1])
	}
}

func TestHistogramDelta(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	base := h.Snapshot()
	h.Record(time.Second)
	h.Record(time.Second)
	d := h.Snapshot().Delta(base)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if d.Mean() != time.Second {
		t.Fatalf("delta mean = %v, want 1s", d.Mean())
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	want := time.Duration(goroutines*per-1) * time.Microsecond
	if s.Max() != want {
		t.Fatalf("max = %v, want %v (CAS loop must not lose the maximum)", s.Max(), want)
	}
}

func TestAbortCounters(t *testing.T) {
	var a AbortCounters
	a.Inc(core.AbortSerialization)
	a.Inc(core.AbortSerialization)
	a.Inc(core.AbortDeadlock)
	a.Inc(core.AbortOther)
	a.Inc(core.AbortReason(200)) // out of range folds into AbortOther
	s := a.Snapshot()
	if s[core.AbortSerialization] != 2 || s[core.AbortDeadlock] != 1 || s[core.AbortOther] != 2 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.Total() != 5 {
		t.Fatalf("total = %d, want 5", s.Total())
	}
	if s.Attributed() != 3 {
		t.Fatalf("attributed = %d, want 3", s.Attributed())
	}
	if r := s.AttributionRate(); r != 0.6 {
		t.Fatalf("attribution rate = %v, want 0.6", r)
	}
	var empty AbortSnapshot
	if empty.AttributionRate() != 1 {
		t.Fatal("empty attribution rate must be 1")
	}
	d := s.Delta(AbortSnapshot{core.AbortSerialization: 0, core.AbortDeadlock: 0})
	if d != s {
		t.Fatalf("delta against zero changed the vector: %+v", d)
	}
}

func TestTxnMetricsSnapshotDelta(t *testing.T) {
	var m TxnMetrics
	m.Commits.Add(3)
	m.Aborts.Inc(core.AbortWAL)
	m.LockWait.Record(time.Millisecond)
	base := m.Snapshot()
	m.Commits.Add(2)
	m.Aborts.Inc(core.AbortWAL)
	m.CommitLatency.Record(time.Microsecond)
	d := m.Snapshot().Delta(base)
	if d.Commits != 2 || d.Aborts[core.AbortWAL] != 1 || d.LockWait.Count != 0 || d.CommitLatency.Count != 1 {
		t.Fatalf("delta wrong: %+v", d)
	}
}

// TestLatencyRecorder pins what the workload driver reads from its
// latency recorder, a Histogram: an exact count and mean (sum/count),
// bucket-interpolated quantiles within a factor of two, and the exact
// maximum at q=1.
func TestLatencyRecorder(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		h.Record(d * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Mean() != 30*time.Millisecond {
		t.Fatalf("count %d mean %v, want 5 and exactly 30ms", s.Count, s.Mean())
	}
	if q := s.Quantile(0.5); q < 15*time.Millisecond || q > 60*time.Millisecond {
		t.Fatalf("median = %v, want within a factor of two of 30ms", q)
	}
	if q := s.Quantile(1.0); q != 50*time.Millisecond {
		t.Fatalf("max = %v, want 50ms", q)
	}
}

// TestLatencyRecorderMergeSnapshot is the driver's pattern: clients
// record concurrently into shared per-type histograms, and the
// coordinator sums the snapshots' counts and sums into an exact mean.
func TestLatencyRecorderMergeSnapshot(t *testing.T) {
	var perType [2]Histogram
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				perType[(w+j)%2].Record(time.Duration(j) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	var n, sum uint64
	for i := range perType {
		s := perType[i].Snapshot()
		n, sum = n+s.Count, sum+s.SumNanos
	}
	if n != 400 {
		t.Fatalf("merged count = %d, want 400", n)
	}
	if mean := time.Duration(sum / n); mean != 49500*time.Nanosecond {
		t.Fatalf("merged mean = %v, want 49.5µs", mean)
	}
}

// TestLatencyRecorderMaxRace is the -race regression test for the
// max-latency accounting: a monitor goroutine snapshots the maximum
// while the owner records, the maximum never goes backwards, and the
// final maximum is never lost.
func TestLatencyRecorderMaxRace(t *testing.T) {
	var h Histogram
	const n = 5000
	done := make(chan struct{})
	go func() { // monitor: polls the maximum concurrently with Record
		defer close(done)
		var last time.Duration
		for i := 0; i < n; i++ {
			m := h.Snapshot().Max()
			if m < last {
				t.Errorf("Max went backwards: %v after %v", m, last)
				return
			}
			last = m
		}
	}()
	for i := 1; i <= n; i++ { // owner goroutine
		h.Record(time.Duration(i))
	}
	<-done
	if m := h.Snapshot().Max(); m != time.Duration(n) {
		t.Fatalf("max = %v, want %v", m, time.Duration(n))
	}
}
