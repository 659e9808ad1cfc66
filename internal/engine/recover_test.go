package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/wal"
)

// memLog returns an empty in-memory segment log at the default segment
// size, so a test-sized log stays in one segment.
func memLog(t testing.TB) *wal.SegmentLog {
	t.Helper()
	l, err := wal.NewMemSegmentLog(0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// logImage returns the concatenation of every live segment of l.
func logImage(t testing.TB, l *wal.SegmentLog) []byte {
	t.Helper()
	segs, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, s := range segs {
		all = append(all, s.Data...)
	}
	return all
}

// logFrom returns an in-memory segment log holding img as its only
// segment: a captured or hand-built log image, as on the platter.
func logFrom(t testing.TB, img []byte) *wal.SegmentLog {
	t.Helper()
	l, err := wal.NewMemSegmentLogFrom([]wal.SegmentData{{Data: img}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// openDurableKV builds a DB on an in-memory log device with table T
// preloaded with (1,100) and (2,200).
func openDurableKV(t *testing.T, dev wal.LogDevice) *DB {
	t.Helper()
	db := Open(Config{WAL: wal.Config{Device: dev}})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k, v := range map[int64]int64{1: 100, 2: 200} {
		if err := tx.Insert("T", kv(k, v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// scanT reads T's latest committed state into a map.
func scanT(t *testing.T, db *DB) map[int64]int64 {
	t.Helper()
	m := map[int64]int64{}
	if err := db.ScanLatest("T", func(k core.Value, rec core.Record) bool {
		m[k.Int64()] = rec[1].Int64()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func commitUpdate(t *testing.T, db *DB, k, v int64) {
	t.Helper()
	tx := db.Begin()
	mustSetV(t, tx, k, v)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWithoutCheckpoint rebuilds a never-checkpointed log: table
// definitions come from durable DDL frames, state from pure redo.
func TestRecoverWithoutCheckpoint(t *testing.T) {
	dev := memLog(t)
	db := openDurableKV(t, dev)
	commitUpdate(t, db, 1, 111)
	tx := db.Begin()
	if err := tx.Delete("T", core.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	preSeq := db.CommitSeq()
	db.Close()

	db2, rep, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.Tables != 1 || rep.CheckpointRows != 0 {
		t.Fatalf("report = %+v, want 1 table from DDL frames, no checkpoint", rep)
	}
	if rep.ReplayedCommits != 3 {
		t.Fatalf("replayed %d commits, want 3", rep.ReplayedCommits)
	}
	if got := scanT(t, db2); len(got) != 1 || got[1] != 111 {
		t.Fatalf("recovered state %v, want {1:111} (row 2 tombstoned)", got)
	}
	if db2.CommitSeq() != preSeq {
		t.Fatalf("recovered CSN %d, want %d", db2.CommitSeq(), preSeq)
	}
}

// TestCheckpointRecoverRoundTrip checkpoints mid-history: recovery must
// restore the snapshot and replay only the commits after the cut.
func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dev := memLog(t)
	db := openDurableKV(t, dev)
	commitUpdate(t, db, 1, 111)
	cut, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cut != db.CommitSeq() {
		t.Fatalf("checkpoint cut %d, want current CommitSeq %d", cut, db.CommitSeq())
	}
	commitUpdate(t, db, 2, 222)
	preSeq := db.CommitSeq()
	db.Close()

	db2, rep, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.CheckpointRows != 2 {
		t.Fatalf("restored %d checkpoint rows, want 2", rep.CheckpointRows)
	}
	if rep.ReplayedCommits != 1 {
		t.Fatalf("replayed %d commits, want only the post-checkpoint one", rep.ReplayedCommits)
	}
	if got := scanT(t, db2); got[1] != 111 || got[2] != 222 {
		t.Fatalf("recovered state %v, want {1:111 2:222}", got)
	}
	if db2.CommitSeq() != preSeq {
		t.Fatalf("recovered CSN %d, want %d", db2.CommitSeq(), preSeq)
	}

	// The revived instance must serve transactions: snapshot reads see
	// recovered versions, and the CSN stream continues past the mark.
	tx := db2.Begin()
	if v := mustGetV(t, tx, 2); v != 222 {
		t.Fatalf("post-recovery read = %d, want 222", v)
	}
	mustSetV(t, tx, 2, 333)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db2.CommitSeq() != preSeq+1 {
		t.Fatalf("post-recovery commit got CSN %d, want %d", db2.CommitSeq(), preSeq+1)
	}
}

// TestRecoverTruncatesTornTail appends garbage to a clean log: recovery
// must discard it, repair the device, and keep every durable commit.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dev := memLog(t)
	db := openDurableKV(t, dev)
	commitUpdate(t, db, 1, 111)
	db.Close()

	if err := dev.Append([]byte{0xba, 0xdb, 0xad}); err != nil {
		t.Fatal(err)
	}
	db2, rep, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.Log.TornBytes != 3 || !rep.Log.Repaired {
		t.Fatalf("torn tail not repaired: %+v", rep.Log)
	}
	if got := scanT(t, db2); got[1] != 111 || got[2] != 200 {
		t.Fatalf("recovered state %v", got)
	}
	if dev.Size() != int64(rep.Log.ValidBytes) {
		t.Fatalf("device still %d bytes, want repaired %d", dev.Size(), rep.Log.ValidBytes)
	}
}

// TestRecoverRebuildsIndexes recovers a table with a unique secondary
// index and checks both lookups and the uniqueness constraint survive.
func TestRecoverRebuildsIndexes(t *testing.T) {
	dev := memLog(t)
	db := Open(Config{WAL: wal.Config{Device: dev}})
	schema := &core.Schema{
		Name: "U",
		Columns: []core.Column{
			{Name: "K", Kind: core.KindInt, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK:     0,
		Unique: []int{1},
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("U", kv(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("U", kv(2, 20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, _, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// The rebuilt index must enforce uniqueness against recovered rows.
	tx = db2.Begin()
	if err := tx.Insert("U", kv(3, 10)); err == nil {
		t.Fatal("recovered unique index admitted a duplicate")
	}
	tx.Abort()
}

// TestWALCommitFailureDoesNotWedgeSequencer arms an error at the WAL
// commit point: the failed transaction must abort cleanly, publish its
// empty CSN slot, and leave the commit sequencer and the checkpoint
// barrier fully operational.
func TestWALCommitFailureDoesNotWedgeSequencer(t *testing.T) {
	dev := memLog(t)
	reg := faultinject.New(1)
	db := Open(Config{WAL: wal.Config{Device: dev}, Faults: reg})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := reg.Arm(faultinject.Spec{Point: wal.FaultCommit, Count: 1, Action: faultinject.ActError}); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	mustSetV(t, tx, 1, 101)
	if err := tx.Commit(); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("commit = %v, want injected WAL failure", err)
	}
	reg.Disarm(wal.FaultCommit)

	// The failed commit's CSN slot must be published (empty), or this
	// commit would hang behind it forever.
	commitUpdate(t, db, 1, 102)
	tx = db.Begin()
	if v := mustGetV(t, tx, 1); v != 102 {
		t.Fatalf("read %d, want 102 — failed commit leaked state or blocked successor", v)
	}
	tx.Abort()

	// The checkpoint barrier must be free too (a leaked read-hold on
	// ckptMu would deadlock here).
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after failed WAL commit: %v", err)
	}
}

// TestWALCommitPanicPublishesSlot is the crash variant: an injected
// panic inside the WAL commit window must still publish the empty slot
// and release the checkpoint barrier while the panic unwinds to the
// caller.
func TestWALCommitPanicPublishesSlot(t *testing.T) {
	dev := memLog(t)
	reg := faultinject.New(1)
	db := Open(Config{WAL: wal.Config{Device: dev}, Faults: reg})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := reg.Arm(faultinject.Spec{Point: wal.FaultCommit, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}
	func() {
		tx := db.Begin()
		defer tx.Abort() // the deferred rollback every program carries
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("injected panic did not propagate")
			} else if _, ok := faultinject.AsPanic(r); !ok {
				panic(r)
			}
		}()
		mustSetV(t, tx, 1, 101)
		_ = tx.Commit()
	}()
	reg.Disarm(wal.FaultCommit)

	commitUpdate(t, db, 1, 102)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after mid-commit crash: %v", err)
	}
}

// TestSSIDoomedCommitLogsNothing pins the durable-WAL ordering of an
// SSI commit: precommit must run before the commit frame is written, so
// a transaction doomed during commit makes nothing durable. There is no
// abort/compensation record — a frame logged before the doom was
// discovered would be replayed after a crash and resurrect the aborted
// transaction's writes.
func TestSSIDoomedCommitLogsNothing(t *testing.T) {
	dev := memLog(t)
	db := Open(Config{Mode: core.SerializableSI, WAL: wal.Config{Device: dev}})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Doom the victim after its last statement, as a concurrent
	// transaction's rw-antidependency would. The dead flag channel is
	// left open so the cheap doomed() poll at the head of Commit does
	// not fire and the doom is only discovered at precommit — the exact
	// window the WAL ordering protects.
	victim := db.Begin()
	mustSetV(t, victim, 1, 666)
	db.ssi.mu.Lock()
	victim.ssi.dead = true
	db.ssi.mu.Unlock()
	if err := victim.Commit(); !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("doomed commit = %v, want ErrSerialization", err)
	}
	db.Close()

	db2, rep, err := Recover(dev, Config{Mode: core.SerializableSI})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.ReplayedCommits != 1 {
		t.Fatalf("replayed %d commits, want only the insert — the doomed commit reached the log", rep.ReplayedCommits)
	}
	if got := scanT(t, db2); got[1] != 100 {
		t.Fatalf("recovered state %v — aborted transaction's write resurrected", got)
	}
}

// TestCreateTableCheckpointRace races DDL against checkpoint re-roots.
// CreateTable holds the checkpoint barrier across the store create and
// the DDL append; without it a full link can cut between the two, embed
// a schema set without the table, and retire the segment holding the
// schema frame — and recovery fails on the table's commits. Small
// segments make every re-root retire.
func TestCreateTableCheckpointRace(t *testing.T) {
	dev, err := wal.NewMemSegmentLog(512)
	if err != nil {
		t.Fatal(err)
	}
	db := openDurableKV(t, dev)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const tables = 24
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("R%d", i)
		if err := db.CreateTable(kvSchema(name)); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if err := tx.Insert(name, kv(1, int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// A last re-root retires every segment before it, schema frames
	// included: recovery must find each table in the link's schema set.
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.WAL().Stats().RetiredSegments == 0 {
		t.Fatal("no checkpoint retired a segment")
	}
	db.Close()

	db2, _, err := Recover(dev, Config{})
	if err != nil {
		t.Fatalf("recovery after DDL/checkpoint race: %v", err)
	}
	defer db2.Close()
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("R%d", i)
		found := false
		if err := db2.ScanLatest(name, func(k core.Value, rec core.Record) bool {
			found = rec[1].Int64() == int64(i)
			return false
		}); err != nil {
			t.Fatalf("table %s lost its schema frame: %v", name, err)
		}
		if !found {
			t.Fatalf("table %s lost its committed row", name)
		}
	}
}

// TestRecoverRejectsCorruptPayloads covers the decoder-level corruption
// engine.Recover must reject rather than crash on: a record that does
// not match its schema, and a commit frame with CSN 0.
func TestRecoverRejectsCorruptPayloads(t *testing.T) {
	schema := kvSchema("T")
	// Schema mismatch: 1-column record in a 2-column NotNull table.
	var log []byte
	log = append(log, wal.EncodeSchema(schema)...)
	log = append(log, wal.EncodeCommit(&wal.CommitFrame{
		TxID: 1, CSN: 1,
		Rows: []wal.RowImage{{Table: "T", Key: core.Int(1), Rec: core.Record{core.Int(1)}}},
	})...)
	if _, _, err := Recover(logFrom(t, log), Config{}); err == nil {
		t.Fatal("schema-mismatched row image accepted")
	}

	// A CSN-0 commit frame is corrupt even with a valid checksum: the
	// decoder treats it as the torn tail, so it is never replayed.
	log = append([]byte{}, wal.EncodeSchema(schema)...)
	log = append(log, wal.EncodeCommit(&wal.CommitFrame{TxID: 1, CSN: 0})...)
	db, rep, err := Recover(logFrom(t, log), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Log.TornBytes == 0 || rep.ReplayedCommits != 0 {
		t.Fatalf("CSN-0 frame not truncated: %+v", rep)
	}
	db.Close()

	// Row image whose primary key disagrees with its logged key.
	log = append([]byte{}, wal.EncodeSchema(schema)...)
	log = append(log, wal.EncodeCommit(&wal.CommitFrame{
		TxID: 1, CSN: 1,
		Rows: []wal.RowImage{{Table: "T", Key: core.Int(2), Rec: core.Record{core.Int(1), core.Int(5)}}},
	})...)
	if _, _, err := Recover(logFrom(t, log), Config{}); err == nil {
		t.Fatal("key-mismatched row image accepted")
	}
}
