package workload

import (
	"testing"
	"time"

	"sicost/internal/core"
)

// TestCrashChaosDurabilityContract is the durability story's core
// promise: across ≥20 crash/recover cycles — crashes landing mid-flush,
// inside the WAL commit window, at commit stamping, mid-statement and
// at begin — every acked commit survives recovery, no partial
// transaction becomes visible, money is conserved, CSNs stay monotone,
// recovery is idempotent, and the last survivor still commits.
func TestCrashChaosDurabilityContract(t *testing.T) {
	rep, err := RunCrashChaos(CrashChaosConfig{
		Cycles: 20,
		Seed:   7,
		Burst:  measure(80 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("durability invariants violated: %v", rep.Violations)
	}
	if len(rep.Cycles) != 20 {
		t.Fatalf("completed %d cycles, want 20", len(rep.Cycles))
	}
	if rep.CrashesFired() == 0 {
		t.Fatal("no crash fault ever fired")
	}
	if rep.ResumeCommits == 0 {
		t.Fatal("final resume burst committed nothing")
	}
	var commits int64
	var torn, replayed, ckptRows int
	for _, c := range rep.Cycles {
		commits += c.Commits
		torn += c.TornBytes
		replayed += c.ReplayedCommits
		ckptRows += c.CheckpointRows
	}
	if commits == 0 {
		t.Fatal("crash cycles committed nothing")
	}
	// The rotation includes wal/flush panics, which tear the device
	// append; at least one cycle must have exercised torn-tail repair.
	if torn == 0 {
		t.Fatal("no cycle exercised torn-tail truncation")
	}
	if replayed == 0 {
		t.Fatal("no cycle exercised redo replay")
	}
	// CheckpointEvery defaults to 2, so later recoveries must have
	// restored checkpoint rows.
	if ckptRows == 0 {
		t.Fatal("no cycle exercised checkpoint restore")
	}
}

// TestCrashChaosSegmented runs the full 20-cycle rotation on a
// segmented log small enough that every burst rotates several times, so
// crashes land at segment boundaries — including the dedicated
// wal/rotate crash point between sealing a full segment and opening its
// successor — and recovery repeatedly scans multi-segment layouts.
func TestCrashChaosSegmented(t *testing.T) {
	rep, err := RunCrashChaos(CrashChaosConfig{
		Cycles:      20,
		Seed:        13,
		Burst:       measure(60 * time.Millisecond),
		SegmentSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("durability invariants violated on segmented log: %v", rep.Violations)
	}
	if rep.CrashesFired() == 0 {
		t.Fatal("no crash fault ever fired")
	}
	var maxSegs int
	for _, c := range rep.Cycles {
		if c.Segments > maxSegs {
			maxSegs = c.Segments
		}
	}
	if maxSegs < 2 {
		t.Fatalf("no recovery ever scanned a multi-segment layout (max %d)", maxSegs)
	}
	if rep.ResumeCommits == 0 {
		t.Fatal("final resume burst committed nothing")
	}
}

// TestCrashChaosAsync runs the rotation in asynchronous-commit mode on
// a segmented log: commits publish before they are durable, so crashes
// inside the coalesced-sync window lose the un-acked tail — and ONLY
// that. Every cycle audits the durable-prefix contract: recovery lands
// exactly on the published state at the recovered high-water mark, and
// no commit whose durability was acknowledged is ever lost.
func TestCrashChaosAsync(t *testing.T) {
	rep, err := RunCrashChaos(CrashChaosConfig{
		Cycles:      20,
		Seed:        17,
		Burst:       measure(60 * time.Millisecond),
		Async:       true,
		SegmentSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("async durable-prefix invariants violated: %v", rep.Violations)
	}
	if rep.CrashesFired() == 0 {
		t.Fatal("no crash fault ever fired")
	}
	// The zero-delta mix moves money without creating it: the ledger of
	// every burst must be exactly zero, which is what makes conservation
	// auditable on an arbitrary surviving prefix.
	if rep.Ledger != 0 {
		t.Fatalf("zero-delta mix produced a nonzero ledger: %d", rep.Ledger)
	}
	if rep.ResumeCommits == 0 {
		t.Fatal("final resume burst committed nothing")
	}
}

// TestCrashChaosFuzzy runs the 20-cycle rotation on another seed and
// pins what the checkpoint chain must show: the log-growth scheduler
// streams links concurrently with the burst's commits, full links
// re-root the chain, covered segments retire (with archiving) while the
// workload runs, and the rotation includes the mid-delta
// (wal/ckpt-delta) and mid-retire (wal/retire) crash points. Recovery
// must fold a chain in some cycle; the audit is the same durability
// contract: recovered state == published state, conservation, monotone
// CSNs, idempotent recovery.
func TestCrashChaosFuzzy(t *testing.T) {
	rep, err := RunCrashChaos(CrashChaosConfig{
		Cycles: 20,
		Seed:   29,
		Burst:  measure(60 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("durability invariants violated under fuzzy checkpoints: %v", rep.Violations)
	}
	if rep.CrashesFired() == 0 {
		t.Fatal("no crash fault ever fired")
	}
	var chainRecoveries int
	for _, c := range rep.Cycles {
		if c.ChainLinks > 0 {
			chainRecoveries++
		}
	}
	if chainRecoveries == 0 {
		t.Fatal("no recovery ever folded a fuzzy checkpoint chain")
	}
	if rep.ResumeCommits == 0 {
		t.Fatal("final resume burst committed nothing")
	}
}

// TestCrashChaosModes runs a shorter rotation under the other two
// concurrency-control modes: the durability contract is mode-agnostic.
func TestCrashChaosModes(t *testing.T) {
	for _, mode := range []core.CCMode{core.Strict2PL, core.SerializableSI} {
		t.Run(mode.String(), func(t *testing.T) {
			rep, err := RunCrashChaos(CrashChaosConfig{
				Mode:   mode,
				Cycles: 6,
				Seed:   11,
				Burst:  measure(40 * time.Millisecond),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("durability invariants violated under %s: %v", mode, rep.Violations)
			}
			if rep.ResumeCommits == 0 {
				t.Fatal("final resume burst committed nothing")
			}
		})
	}
}

// TestCrashChaosDeadlines runs the rotation with a default transaction
// deadline racing simulated fsync latency: deadlines expire inside
// flush-group waits, so WAL.Withdraw races the flush window's claim
// while crash points fire around both. The audit is unchanged — a
// withdrawn commit must look exactly like an abort (never
// half-published) or the row-for-row state diff catches it.
func TestCrashChaosDeadlines(t *testing.T) {
	rep, err := RunCrashChaos(CrashChaosConfig{
		Cycles:       12,
		Seed:         23,
		Burst:        measure(60 * time.Millisecond),
		TxDeadline:   4 * time.Millisecond,
		FsyncLatency: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("durability invariants violated under deadlines: %v", rep.Violations)
	}
	if rep.CrashesFired() == 0 {
		t.Fatal("no crash fault ever fired")
	}
	var deadline int64
	for _, c := range rep.Cycles {
		deadline += c.DeadlineAborts
	}
	if deadline == 0 {
		t.Fatal("no burst ever expired a deadline — the race was not exercised")
	}
	if rep.ResumeCommits == 0 {
		t.Fatal("final resume burst committed nothing")
	}
}
