package wal

import (
	"errors"
	"sync"
	"testing"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

// gateDevice blocks its first Append until released, so a test can pin
// records into a specific flush window: window 1 is whatever is in
// flight when the gate closes the loop, and everything enqueued while
// it is blocked lands in window 2.
type gateDevice struct {
	*SegmentLog
	entered chan struct{} // closed when the first Append begins
	release chan struct{} // the first Append blocks until this closes
	first   sync.Once
}

func newGateDevice(t *testing.T) *gateDevice {
	return &gateDevice{SegmentLog: memLog(t), entered: make(chan struct{}), release: make(chan struct{})}
}

func (d *gateDevice) Append(b []byte) error {
	d.first.Do(func() {
		close(d.entered)
		<-d.release
	})
	return d.SegmentLog.Append(b)
}

func enq(t *testing.T, w *WAL, csn uint64) <-chan error {
	t.Helper()
	done, err := w.Enqueue(&Record{
		TxID: csn + 100, CSN: csn,
		Rows: []RowImage{{Table: "t", Key: core.Int(int64(csn)), Rec: core.Record{core.Int(int64(csn))}}},
	})
	if err != nil {
		t.Fatalf("enqueue %d: %v", csn, err)
	}
	return done
}

// TestCoalescedWindowOneSyncManyGroups pins the tentpole contract: a
// window of many MaxBatch-sized flush groups is covered by ONE device
// sync, so CommitsPerSync exceeds the per-group batch bound.
func TestCoalescedWindowOneSyncManyGroups(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev, MaxBatch: 2})
	defer w.Close()

	d1 := enq(t, w, 1)
	<-dev.entered
	var dones []<-chan error
	for csn := uint64(2); csn <= 7; csn++ {
		dones = append(dones, enq(t, w, csn))
	}
	close(dev.release)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	for i, d := range dones {
		if err := <-d; err != nil {
			t.Fatalf("record %d: %v", i+2, err)
		}
	}

	s := w.Stats()
	// Window 1: one group, one sync. Window 2: six records = three
	// groups of two, one sync.
	if s.Syncs != 2 || s.Flushes != 4 || s.Records != 7 {
		t.Fatalf("stats = %+v, want Syncs=2 Flushes=4 Records=7", s)
	}
	if got := s.CommitsPerSync(); got != 3.5 {
		t.Fatalf("CommitsPerSync = %v, want 3.5", got)
	}
	if s.Bytes != dev.Size() {
		t.Fatalf("Bytes %d != device size %d", s.Bytes, dev.Size())
	}
	if csn, outstanding := w.DurableWatermark(); csn != 7 || outstanding {
		t.Fatalf("watermark = %d/%v, want 7/false", csn, outstanding)
	}
}

// TestSyncEveryGroupBaseline pins the ablation baseline: with
// SyncEveryGroup, every flush group pays its own sync.
func TestSyncEveryGroupBaseline(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev, MaxBatch: 2, SyncEveryGroup: true})
	defer w.Close()

	d1 := enq(t, w, 1)
	<-dev.entered
	var dones []<-chan error
	for csn := uint64(2); csn <= 7; csn++ {
		dones = append(dones, enq(t, w, csn))
	}
	close(dev.release)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	for _, d := range dones {
		if err := <-d; err != nil {
			t.Fatal(err)
		}
	}
	if s := w.Stats(); s.Syncs != s.Flushes || s.Syncs != 4 || s.Records != 7 {
		t.Fatalf("stats = %+v, want one sync per group (4 each)", s)
	}
}

// TestFailedGroupCountsOnceInWindow is the Flushes/Bytes accounting
// regression test: a flush group rejected by an injected device error
// while the rest of its window proceeds must count exactly once — in
// FailedFlushes — and contribute nothing to Flushes, Records or Bytes.
// (The old accounting charged the group's bytes before the device write
// and again when the remaining groups' sync landed.)
func TestFailedGroupCountsOnceInWindow(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev, MaxBatch: 2})
	reg := faultinject.New(11)
	w.SetFaults(reg)
	defer w.Close()

	// Skip window 1's group, then fail exactly one group of window 2.
	if err := reg.Arm(faultinject.Spec{Point: FaultFlush, After: 1, Count: 1, Action: faultinject.ActError}); err != nil {
		t.Fatal(err)
	}

	d1 := enq(t, w, 1)
	<-dev.entered
	var dones []<-chan error
	for csn := uint64(2); csn <= 7; csn++ {
		dones = append(dones, enq(t, w, csn))
	}
	close(dev.release)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	// Window 2 groups: {2,3} fails (injected), {4,5} and {6,7} succeed.
	for i, d := range dones {
		csn := uint64(i + 2)
		err := <-d
		if csn <= 3 {
			if !errors.Is(err, core.ErrInjected) {
				t.Fatalf("record %d = %v, want ErrInjected", csn, err)
			}
		} else if err != nil {
			t.Fatalf("record %d: %v", csn, err)
		}
	}

	s := w.Stats()
	if s.FailedFlushes != 1 {
		t.Fatalf("FailedFlushes = %d, want 1", s.FailedFlushes)
	}
	if s.Flushes != 3 || s.Records != 5 || s.Syncs != 2 {
		t.Fatalf("stats = %+v, want Flushes=3 Records=5 Syncs=2", s)
	}
	// The sharp double-count check: accounted bytes must equal what the
	// device actually holds — the failed group's frames never reached it.
	if s.Bytes != dev.Size() {
		t.Fatalf("Bytes %d != device size %d (failed group double-counted)", s.Bytes, dev.Size())
	}
	// The injected error is transient, not a crash; the WAL stays alive
	// and the device log stays fully decodable.
	if w.Broken() != nil {
		t.Fatalf("transient group failure bricked the WAL: %v", w.Broken())
	}
	b := logBytes(t, dev.SegmentLog)
	frames, valid := ScanLog(b)
	if valid != len(b) || len(frames) != 5 {
		t.Fatalf("device: %d frames, %d/%d valid — want the 5 acked commits", len(frames), valid, len(b))
	}
	got := map[uint64]bool{}
	for _, f := range frames {
		got[f.Commit.CSN] = true
	}
	for _, csn := range []uint64{1, 4, 5, 6, 7} {
		if !got[csn] {
			t.Fatalf("acked commit %d missing from device", csn)
		}
	}
	if csn, outstanding := w.DurableWatermark(); csn != 7 || outstanding {
		t.Fatalf("watermark = %d/%v, want 7/false", csn, outstanding)
	}
}

// TestSyncCrashLosesWholeWindow pins the FaultSync ActPanic semantics:
// power dying inside the coalesced-sync window loses every unsynced
// append — no record of the window is acknowledged or durable — and the
// WAL bricks.
func TestSyncCrashLosesWholeWindow(t *testing.T) {
	dev := memLog(t)
	w := New(Config{Device: dev})
	reg := faultinject.New(13)
	w.SetFaults(reg)
	defer w.Close()

	if err := durableCommit(w, 1); err != nil {
		t.Fatal(err)
	}
	cleanSize := dev.Size()

	if err := reg.Arm(faultinject.Spec{Point: FaultSync, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}
	if err := durableCommit(w, 2); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("commit through sync crash = %v, want ErrInjected", err)
	}
	if w.Broken() == nil {
		t.Fatal("sync crash did not brick the WAL")
	}
	if dev.Size() != cleanSize {
		t.Fatalf("unsynced window bytes survived the crash: %d > %d", dev.Size(), cleanSize)
	}
	if s := w.Stats(); s.FailedFlushes != 1 || s.Records != 1 || s.Syncs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Commits) != 1 || info.HighCSN != 1 {
		t.Fatalf("recovery: %+v, want exactly the acked commit", info)
	}
}

// TestAsyncRecordFailureBricks pins the async contract: a record whose
// committer already published cannot be failed quietly — the WAL must
// brick so the engine knows the published state is no longer
// recoverable.
func TestAsyncRecordFailureBricks(t *testing.T) {
	w := New(Config{Device: memLog(t)})
	reg := faultinject.New(17)
	w.SetFaults(reg)
	defer w.Close()

	boom := errors.New("late disk death")
	failFlushes(t, reg, boom)
	done, err := w.Enqueue(&Record{TxID: 100, CSN: 1, Async: true,
		Rows: []RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1)}}}})
	if err != nil {
		t.Fatal(err)
	}
	if ferr := <-done; !errors.Is(ferr, boom) {
		t.Fatalf("future = %v, want injected error", ferr)
	}
	if w.Broken() == nil {
		t.Fatal("failed async record did not brick the WAL")
	}
	// Sync records failing the same way do NOT brick: their committer
	// aborts instead.
	w2 := New(Config{Device: memLog(t)})
	w2.SetFaults(reg)
	defer w2.Close()
	done2, err := w2.Enqueue(&Record{TxID: 101, CSN: 1,
		Rows: []RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1)}}}})
	if err != nil {
		t.Fatal(err)
	}
	if ferr := <-done2; !errors.Is(ferr, boom) {
		t.Fatalf("future = %v", ferr)
	}
	if w2.Broken() != nil {
		t.Fatalf("failed sync record bricked the WAL: %v", w2.Broken())
	}
}

// TestWaitDurableCSN covers the watermark API: waiting on an
// already-durable CSN returns immediately, a future CSN blocks until
// its record resolves, and a closed WAL releases waiters with
// ErrWALClosed.
func TestWaitDurableCSN(t *testing.T) {
	w := New(Config{Device: memLog(t)})

	if err := durableCommit(w, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurableCSN(1); err != nil {
		t.Fatalf("wait on durable CSN: %v", err)
	}

	got := make(chan error, 1)
	go func() { got <- w.WaitDurableCSN(2) }()
	if err := durableCommit(w, 2); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("wait released with %v", err)
	}

	go func() { got <- w.WaitDurableCSN(99) }()
	w.Close()
	if err := <-got; !errors.Is(err, core.ErrWALClosed) {
		t.Fatalf("wait on closed WAL = %v, want ErrWALClosed", err)
	}
}
