package wal

import (
	"testing"
	"time"

	"sicost/internal/faultinject"
)

// TestCrashElsewhereSettlesSyncedWindow is the regression test for a
// crash-chaos flake at wal/retire: a flush window appended its frames,
// a chain link's end marker synced them on another goroutine, and the
// process then died mid-retire before the window's own Sync. The window
// is on the platter, so recovery replays it; its committers must
// therefore be acknowledged. They were told the commit failed instead,
// rolled back, and recovery resurrected the commit — a lost-update
// mismatch and broken money conservation in the chaos audit.
func TestCrashElsewhereSettlesSyncedWindow(t *testing.T) {
	seg, err := NewMemSegmentLog(64)
	if err != nil {
		t.Fatal(err)
	}
	reg := faultinject.New(1)
	w := New(Config{Device: seg})
	w.SetFaults(reg)
	defer w.Close()

	s := testSchema()
	if err := w.AppendSchema(&s); err != nil {
		t.Fatal(err)
	}
	// Hold the flush loop between its append and its own Sync.
	if err := reg.Arm(faultinject.Spec{Point: FaultSync, Count: 1, Action: faultinject.ActDelay, Delay: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	before := seg.Size()
	errc := make(chan error, 1)
	go func() { errc <- durableCommit(w, 1) }()
	for deadline := time.Now().Add(5 * time.Second); seg.Size() == before; {
		if time.Now().After(deadline) {
			t.Fatal("commit frame never reached the device")
		}
		time.Sleep(time.Millisecond)
	}
	// A link's end marker: appended and synced, covering the window.
	if _, err := w.EndDelta(&DeltaEnd{CSN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Arm(faultinject.Spec{Point: FaultRetire, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Retire(seg.CurrentSegment(), ""); err == nil {
		t.Fatal("retire crash did not fail the retire")
	}
	verdict := <-errc

	segs, err := seg.Segments()
	if err != nil {
		t.Fatal(err)
	}
	info, err := ClassifySegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	recovered := false
	for _, c := range info.Commits {
		recovered = recovered || c.CSN == 1
	}
	if !recovered {
		t.Fatal("the link's Sync did not make the window durable; the set-up is broken")
	}
	if verdict != nil {
		t.Fatalf("durable commit reported failed (%v): recovery would resurrect a rolled-back commit", verdict)
	}
}
