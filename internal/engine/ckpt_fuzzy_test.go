package engine

import (
	"os"
	"testing"
	"time"

	"sicost/internal/wal"
)

// TestCheckpointIncrementalChainRecovery builds a three-link chain —
// full root, two delta links — with commits between the links, and
// recovers it: the fold must land on the final cut, replay nothing that
// a link already covers, and reproduce the exact final state.
func TestCheckpointIncrementalChainRecovery(t *testing.T) {
	dev := memLog(t)
	db := openDurableKV(t, dev) // rows {1:100, 2:200} at CSN 1
	if _, err := db.CheckpointIncremental(); err != nil {
		t.Fatal(err) // full root at cut 1
	}
	commitUpdate(t, db, 1, 111)
	if _, err := db.CheckpointIncremental(); err != nil {
		t.Fatal(err) // delta link at cut 2, covering key 1
	}
	commitUpdate(t, db, 2, 222)
	if cut, err := db.CheckpointIncremental(); err != nil || cut != 3 {
		t.Fatalf("third link: cut %d err %v, want cut 3", cut, err)
	}
	cs := db.CheckpointStats()
	if cs.Links != 3 || cs.FullLinks != 1 || cs.ChainLinks != 3 || cs.ChainBase != 3 {
		t.Fatalf("checkpoint stats: %+v", cs)
	}
	if got := db.WAL().Stats().DeltaCheckpoints; got != 3 {
		t.Fatalf("wal counted %d delta checkpoints, want 3", got)
	}
	db.Close()

	db2, rep, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.Log.Checkpoint == nil || rep.Log.Checkpoint.CSN != 3 || rep.Log.ChainLinks != 3 {
		t.Fatalf("fold: %+v links %d, want cut 3 over 3 links", rep.Log.Checkpoint, rep.Log.ChainLinks)
	}
	if rep.ReplayedCommits != 0 {
		t.Fatalf("replayed %d commits, want 0 — every commit is inside a link", rep.ReplayedCommits)
	}
	if got := scanT(t, db2); got[1] != 111 || got[2] != 222 || len(got) != 2 {
		t.Fatalf("recovered state %v, want {1:111 2:222}", got)
	}
	if db2.CommitSeq() != 3 {
		t.Fatalf("recovered CSN %d, want 3", db2.CommitSeq())
	}
}

// TestCheckpointIncrementalTornLastLink is the fallback contract at the
// engine level: the log is cut at EVERY byte inside the final delta
// link, and each truncation must recover to the exact pre-crash state —
// the incomplete link never partially folds, and the commits it covered
// are replayed as redo from the previous link's cut instead.
func TestCheckpointIncrementalTornLastLink(t *testing.T) {
	dev := memLog(t)
	db := openDurableKV(t, dev)
	if _, err := db.CheckpointIncremental(); err != nil {
		t.Fatal(err) // full root at cut 1
	}
	commitUpdate(t, db, 1, 111)
	if _, err := db.CheckpointIncremental(); err != nil {
		t.Fatal(err) // delta link at cut 2
	}
	commitUpdate(t, db, 2, 222)
	before := dev.Size()
	if _, err := db.CheckpointIncremental(); err != nil {
		t.Fatal(err) // delta link at cut 3 — the one we tear
	}
	after := dev.Size()
	db.Close()
	full := logImage(t, dev)

	for cut := before; cut < after; cut++ {
		torn := logFrom(t, append([]byte(nil), full[:cut]...))
		db2, rep, rerr := Recover(torn, Config{})
		if rerr != nil {
			t.Fatalf("cut %d: %v", cut, rerr)
		}
		if rep.Log.Checkpoint == nil || rep.Log.Checkpoint.CSN != 2 || rep.Log.ChainLinks != 2 {
			t.Fatalf("cut %d: fold %+v links %d, want fallback to cut 2 over 2 links",
				cut, rep.Log.Checkpoint, rep.Log.ChainLinks)
		}
		if rep.ReplayedCommits != 1 {
			t.Fatalf("cut %d: replayed %d commits, want commit 3 as redo again", cut, rep.ReplayedCommits)
		}
		if got := scanT(t, db2); got[1] != 111 || got[2] != 222 || len(got) != 2 {
			t.Fatalf("cut %d: recovered state %v, want {1:111 2:222}", cut, got)
		}
		db2.Close()
	}
}

// TestCheckpointChainMaxReRoots pins the re-root policy: with
// CheckpointChainMax=2 the third link must be written full again
// (Base 0), starting a fresh chain recovery folds without the old root.
func TestCheckpointChainMaxReRoots(t *testing.T) {
	dev := memLog(t)
	db := Open(Config{WAL: wal.Config{Device: dev}, CheckpointChainMax: 2})
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
	for i := int64(0); i < 3; i++ {
		commitUpdate(t, db, 1, 100+i)
		if _, err := db.CheckpointIncremental(); err != nil {
			t.Fatal(err)
		}
	}
	cs := db.CheckpointStats()
	if cs.Links != 3 || cs.FullLinks != 2 || cs.ChainLinks != 1 {
		t.Fatalf("stats after re-root: %+v, want 3 links with 2 full and a fresh chain", cs)
	}
	db.Close()

	db2, rep, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.Log.ChainLinks != 1 {
		t.Fatalf("recovered chain length %d, want 1 (the re-rooted full link)", rep.Log.ChainLinks)
	}
	if got := scanT(t, db2); got[1] != 102 {
		t.Fatalf("recovered state %v, want {1:102}", got)
	}
}

// TestCheckpointSchedulerRetiresSegments runs the whole retention loop
// live: the log-growth scheduler takes incremental checkpoints on its
// own, chain re-roots advance the retirement bound, covered segments
// are archived and deleted while commits keep flowing — and the
// surviving live directory alone recovers the exact final state: the
// checkpoint chain bounds the log.
func TestCheckpointSchedulerRetiresSegments(t *testing.T) {
	walDir, archDir := t.TempDir(), t.TempDir()
	sl, err := wal.OpenSegmentLog(walDir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(Config{
		WAL:                wal.Config{Device: sl},
		CheckpointLogBytes: 4096,
		CheckpointChainMax: 2,
		ArchiveDir:         archDir,
	})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(1); k <= 4; k++ {
		if err := tx.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	i := int64(0)
	for {
		commitUpdate(t, db, 1+i%4, i)
		i++
		ws := db.WAL().Stats()
		if ws.RetiredSegments > 0 && ws.ArchivedSegments > 0 && db.CheckpointStats().Links > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retirement after %d commits: wal %+v ckpt %+v", i, ws, db.CheckpointStats())
		}
	}
	final := scanT(t, db)
	preSeq := db.CommitSeq()
	db.Close()

	arch, err := os.ReadDir(archDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arch) == 0 {
		t.Fatal("retirement reported archived segments but the archive directory is empty")
	}

	sl2, err := wal.OpenSegmentLog(walDir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	db2, rep, err := Recover(sl2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.Log.Checkpoint == nil {
		t.Fatal("retired log recovered without a checkpoint — retirement outran the chain root")
	}
	if got := scanT(t, db2); len(got) != len(final) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(final))
	} else {
		for k, v := range final {
			if got[k] != v {
				t.Fatalf("recovered state %v, want %v", got, final)
			}
		}
	}
	if db2.CommitSeq() != preSeq {
		t.Fatalf("recovered CSN %d, want %d", db2.CommitSeq(), preSeq)
	}
}
