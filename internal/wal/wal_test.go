package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

// commitN commits a bookkeeping-only record (the latency-simulation
// shape most WAL tests exercise): txID plus an accounted byte size.
func commitN(w *WAL, txID uint64, n int) error {
	return w.Commit(&Record{TxID: txID, Bytes: n})
}

func TestDisabledWALIsFree(t *testing.T) {
	w := New(Config{})
	start := time.Now()
	if err := commitN(w, 1, 100); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("disabled WAL waited")
	}
	if w.Enabled() {
		t.Fatal("zero-latency WAL must report disabled")
	}
	if s := w.Stats(); s.Flushes != 0 || s.Records != 0 {
		t.Fatalf("disabled WAL recorded stats: %+v", s)
	}
}

func TestCommitWaitsForFsync(t *testing.T) {
	w := New(Config{FsyncLatency: 20 * time.Millisecond})
	defer w.Close()
	start := time.Now()
	if err := commitN(w, 1, 64); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("commit returned after %v, before fsync latency", el)
	}
	s := w.Stats()
	if s.Flushes != 1 || s.Records != 1 || s.Bytes != 64 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGroupCommitAmortizesFlushes(t *testing.T) {
	w := New(Config{FsyncLatency: 30 * time.Millisecond})
	defer w.Close()

	const n = 16
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if err := commitN(w, id, 10); err != nil {
				t.Error(err)
			}
		}(uint64(i))
	}
	wg.Wait()
	elapsed := time.Since(start)

	s := w.Stats()
	if s.Records != n {
		t.Fatalf("records = %d, want %d", s.Records, n)
	}
	// All 16 commits must share a small number of flushes (at most 3:
	// one for the first arrival, one or two groups for the rest).
	if s.Flushes > 3 {
		t.Fatalf("flushes = %d; group commit not batching", s.Flushes)
	}
	if elapsed > 5*30*time.Millisecond {
		t.Fatalf("16 concurrent commits took %v; not amortized", elapsed)
	}
	if s.AvgBatch() < float64(n)/3 {
		t.Fatalf("avg batch = %.1f, expected large groups", s.AvgBatch())
	}
}

func TestMaxBatchSplitsGroups(t *testing.T) {
	w := New(Config{FsyncLatency: 5 * time.Millisecond, MaxBatch: 2})
	defer w.Close()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if err := commitN(w, id, 1); err != nil {
				t.Error(err)
			}
		}(uint64(i))
	}
	wg.Wait()
	s := w.Stats()
	if s.Records != 6 {
		t.Fatalf("records = %d", s.Records)
	}
	if s.Flushes < 3 {
		t.Fatalf("flushes = %d; MaxBatch=2 should force at least 3 groups for 6 records", s.Flushes)
	}
}

// TestInjectFailure drives the wal/flush fault point as a transient
// log-disk failure on the latency-only log: every flush fails while it
// is armed, and the log works again once it is disarmed.
func TestInjectFailure(t *testing.T) {
	w := New(Config{FsyncLatency: time.Millisecond})
	reg := faultinject.New(1)
	w.SetFaults(reg)
	defer w.Close()
	boom := errors.New("log disk failure")
	failFlushes(t, reg, boom)
	if err := commitN(w, 1, 1); !errors.Is(err, boom) {
		t.Fatalf("Commit err = %v, want injected fault", err)
	}
	// A failed flush is accounted as failed, never as durable work.
	if s := w.Stats(); s.FailedFlushes != 1 || s.Flushes != 0 || s.Records != 0 || s.Bytes != 0 {
		t.Fatalf("stats after failed flush = %+v, want only FailedFlushes=1", s)
	}
	reg.Disarm(FaultFlush)
	if err := commitN(w, 2, 1); err != nil {
		t.Fatalf("after clearing fault: %v", err)
	}
	if s := w.Stats(); s.FailedFlushes != 1 || s.Flushes != 1 || s.Records != 1 {
		t.Fatalf("stats after recovery = %+v, want Flushes=1 Records=1 FailedFlushes=1", s)
	}
}

func TestCloseFailsPendingAndFutureCommits(t *testing.T) {
	w := New(Config{FsyncLatency: 50 * time.Millisecond})

	errc := make(chan error, 1)
	go func() { errc <- commitN(w, 1, 1) }()
	// Let the commit enqueue, then close mid-flight. The in-flight flush
	// group may still succeed; what must hold is that a commit issued
	// after Close fails immediately.
	time.Sleep(5 * time.Millisecond)
	w.Close()
	<-errc // either nil (already in a flush group) or ErrWALClosed

	if err := commitN(w, 2, 1); !errors.Is(err, core.ErrWALClosed) {
		t.Fatalf("commit after close = %v, want ErrWALClosed", err)
	}
	w.Close() // idempotent
}

func TestSequentialCommitsSeparateFlushes(t *testing.T) {
	w := New(Config{FsyncLatency: 5 * time.Millisecond})
	defer w.Close()
	for i := 0; i < 3; i++ {
		if err := commitN(w, uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	s := w.Stats()
	if s.Flushes != 3 {
		t.Fatalf("3 sequential commits produced %d flushes, want 3", s.Flushes)
	}
	if s.AvgBatch() != 1 {
		t.Fatalf("avg batch = %.1f, want 1 for sequential commits", s.AvgBatch())
	}
}

func TestScaledConfig(t *testing.T) {
	c := Config{FsyncLatency: 10 * time.Millisecond}.Scaled(0.5)
	if c.FsyncLatency != 5*time.Millisecond {
		t.Fatalf("Scaled(0.5) = %v", c.FsyncLatency)
	}
}

func TestWithdrawPendingRecord(t *testing.T) {
	w := New(Config{FsyncLatency: 50 * time.Millisecond})
	defer w.Close()

	// Occupy the flusher with a first record so the second stays in
	// pending for the duration of the in-flight window.
	first := make(chan error, 1)
	go func() { first <- commitN(w, 1, 64) }()
	time.Sleep(10 * time.Millisecond)

	rec := &Record{TxID: 2, Bytes: 64, CSN: 7}
	done, err := w.Enqueue(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Withdraw(rec) {
		t.Fatal("record behind a busy flusher should be withdrawable")
	}
	// A withdrawn record's verdict channel never resolves, and the
	// outstanding-record count it held is released so the durability
	// watermark does not wedge on it.
	select {
	case v := <-done:
		t.Fatalf("withdrawn record resolved: %v", v)
	case <-time.After(120 * time.Millisecond):
	}
	if err := <-first; err != nil {
		t.Fatalf("in-flight commit: %v", err)
	}
	if _, outstanding := w.DurableWatermark(); outstanding {
		t.Fatal("withdrawn record left the watermark outstanding")
	}
	// Withdrawing again — or withdrawing a record a window already
	// claimed — reports false.
	if w.Withdraw(rec) {
		t.Fatal("double withdraw succeeded")
	}
	if s := w.Stats(); s.Records != 1 {
		t.Fatalf("withdrawn record was flushed: %+v", s)
	}
}

func TestWithdrawLosesToClaimedWindow(t *testing.T) {
	w := New(Config{FsyncLatency: 30 * time.Millisecond})
	defer w.Close()

	// With an idle flusher the window claims the record immediately.
	rec := &Record{TxID: 1, Bytes: 64}
	done, err := w.Enqueue(rec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if w.Withdraw(rec) {
		t.Fatal("withdrew a record already claimed by a flush window")
	}
	if v := <-done; v != nil {
		t.Fatalf("claimed record's verdict: %v", v)
	}
}
