package onlinecheck

import (
	"strings"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/trace"
)

// These tests drive a real engine with a small recorder installed and
// check the verdict over the recorded stream: the committed histories
// the engine actually produces, not hand-built event streams.

func kv(k, v int64) core.Record { return core.Record{core.Int(k), core.Int(v)} }

// openT opens a database with table T = {(1,0),(2,0)}, loaded before
// any recorder is installed.
func openT(t *testing.T, mode core.CCMode) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{Mode: mode, Platform: core.PlatformPostgres})
	t.Cleanup(db.Close)
	if err := db.CreateTable(&core.Schema{
		Name: "T",
		Columns: []core.Column{
			{Name: "K", Kind: core.KindInt, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(1); k <= 2; k++ {
		if err := seed.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// record installs a small single-shard recorder: strict FIFO, and
// sized for a few thousand events.
func record(db *engine.DB) *trace.Recorder {
	rec := trace.New(trace.Options{Shards: 1, ShardCap: 1 << 12})
	db.SetTracer(rec)
	return rec
}

// newDB is openT with a recorder installed after the load.
func newDB(t *testing.T, mode core.CCMode) (*engine.DB, *trace.Recorder) {
	db := openT(t, mode)
	return db, record(db)
}

// verdict drains rec and checks the stream as the scripted call sites
// do: SI rules on for the snapshot modes.
func verdict(t *testing.T, db *engine.DB, rec *trace.Recorder) *Report {
	t.Helper()
	rep := Run(rec.Drain(), Config{SIRules: db.Mode() != core.Strict2PL})
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("recorder dropped %d events", d)
	}
	return rep
}

func get(t *testing.T, tx *engine.Tx, k int64) int64 {
	t.Helper()
	rec, err := tx.Get("T", core.Int(k))
	if err != nil {
		t.Fatal(err)
	}
	return rec[1].Int64()
}

func set(t *testing.T, tx *engine.Tx, k, v int64) {
	t.Helper()
	if err := tx.Update("T", core.Int(k), kv(k, v)); err != nil {
		t.Fatal(err)
	}
}

func commit(t *testing.T, tx *engine.Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSerialHistoryIsSerializable(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)
	for i := int64(0); i < 5; i++ {
		tx := db.Begin()
		v := get(t, tx, 1)
		set(t, tx, 1, v+1)
		commit(t, tx)
	}
	rep := verdict(t, db, rec)
	if !rep.OK() {
		t.Fatalf("serial history flagged: %s", rep.Describe())
	}
	if rep.Txns != 5 {
		t.Fatalf("txns = %d", rep.Txns)
	}
	if rep.Anomaly() != "serializable" {
		t.Fatal("classification")
	}
	if !strings.Contains(rep.Describe(), "serializable") {
		t.Fatal("describe")
	}
}

func TestWriteSkewDetected(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)

	t1 := db.Begin()
	t1.SetTag("left")
	t2 := db.Begin()
	t2.SetTag("right")
	_ = get(t, t1, 1)
	_ = get(t, t1, 2)
	_ = get(t, t2, 1)
	_ = get(t, t2, 2)
	set(t, t1, 1, -1)
	set(t, t2, 2, -1)
	commit(t, t1)
	commit(t, t2)

	rep := verdict(t, db, rec)
	if rep.Serializable {
		t.Fatalf("write skew missed: %s", rep.Describe())
	}
	if got := rep.Anomaly(); got != "write skew" {
		t.Fatalf("Anomaly = %q", got)
	}
	desc := rep.Describe()
	for _, want := range []string{"NOT serializable", "write skew", "(left)", "(right)", "--rw["} {
		if !strings.Contains(desc, want) {
			t.Fatalf("describe missing %q:\n%s", want, desc)
		}
	}
}

// TestReadOnlyAnomalyDetected reproduces Fekete/O'Neil/O'Neil (SIGMOD
// Record 2004), the anomaly SmallBank §III-C is built on: a read-only
// transaction makes an otherwise-serializable pair non-serializable.
func TestReadOnlyAnomalyDetected(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)

	// Row 1 is the savings account (x), row 2 checking (y); both 0.
	t1 := db.Begin() // WriteCheck: sees x+y=0 < 10, charges penalty
	t1.SetTag("WC")
	t2 := db.Begin() // TransactSaving: deposit 20 into savings
	t2.SetTag("TS")

	_ = get(t, t2, 1)
	set(t, t2, 1, 20)
	commit(t, t2)

	t3 := db.Begin() // Balance: sees TS's deposit but not WC's check
	t3.SetTag("Bal")
	if got := get(t, t3, 1); got != 20 {
		t.Fatalf("Bal sees x=%d, want 20", got)
	}
	if got := get(t, t3, 2); got != 0 {
		t.Fatalf("Bal sees y=%d, want 0", got)
	}
	commit(t, t3)

	// WC still runs on the old snapshot: total 0 < 10 => penalty.
	if x, y := get(t, t1, 1), get(t, t1, 2); x != 0 || y != 0 {
		t.Fatalf("WC snapshot = %d,%d", x, y)
	}
	set(t, t1, 2, -11)
	commit(t, t1)

	rep := verdict(t, db, rec)
	if rep.Serializable {
		t.Fatalf("read-only anomaly missed: %s", rep.Describe())
	}
	if got := rep.Anomaly(); got != "read-only anomaly" {
		t.Fatalf("Anomaly = %q (%s)", got, rep.Describe())
	}
	// The anomaly hinges on the read-only transaction: the cycle must
	// pass through it, and the report names it by its tag.
	onCycle := map[string]bool{}
	for _, tag := range rep.Violations[0].Tags {
		onCycle[tag] = true
	}
	if !onCycle["Bal"] || !onCycle["WC"] || !onCycle["TS"] {
		t.Fatalf("cycle tags %v, want WC, TS and Bal: %s", rep.Violations[0].Tags, rep.Describe())
	}
	if !strings.Contains(rep.Describe(), "(Bal)") {
		t.Fatalf("describe does not name the reader:\n%s", rep.Describe())
	}
}

func TestWithoutReaderPairIsSerializable(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)

	t1 := db.Begin()
	t2 := db.Begin()
	_ = get(t, t2, 1)
	set(t, t2, 1, 20)
	commit(t, t2)
	_ = get(t, t1, 1)
	_ = get(t, t1, 2)
	set(t, t1, 2, -11)
	commit(t, t1)

	if rep := verdict(t, db, rec); !rep.OK() {
		t.Fatalf("WC/TS without reader must be serializable (T1 before T2): %s", rep.Describe())
	}
}

func TestLostUpdatePreventionKeepsGraphAcyclic(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)
	t1 := db.Begin()
	t2 := db.Begin()
	_ = get(t, t1, 1)
	_ = get(t, t2, 1)
	set(t, t1, 1, 10)
	commit(t, t1)
	if err := t2.Update("T", core.Int(1), kv(1, 20)); err == nil {
		t.Fatal("FUW should have fired")
	}
	t2.Abort()
	rep := verdict(t, db, rec)
	if !rep.OK() || rep.Txns != 1 {
		t.Fatalf("aborted txn contaminated the graph: %s", rep.Describe())
	}
}

func TestWWandWRChains(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)
	// Three sequential writers then a reader: WW chain + WR edge.
	for i := int64(1); i <= 3; i++ {
		tx := db.Begin()
		set(t, tx, 1, i)
		commit(t, tx)
	}
	r := db.Begin()
	_ = get(t, r, 1)
	commit(t, r)

	// One pass retires nothing (the first pass's floor is zero), so the
	// window still holds every edge for inspection.
	c := New(Config{SIRules: true})
	c.Ingest(rec.Drain())
	kinds := map[DepKind]int{}
	for _, n := range c.window {
		for _, e := range n.out {
			kinds[e.kind]++
		}
	}
	if kinds[WW] != 2 {
		t.Fatalf("ww edges = %d, want 2", kinds[WW])
	}
	if kinds[WR] != 1 {
		t.Fatalf("wr edges = %d, want 1", kinds[WR])
	}
	if kinds[RW] != 0 {
		t.Fatalf("rw edges = %d, want 0", kinds[RW])
	}
	if rep := c.Finalize(); !rep.OK() {
		t.Fatalf("chain must be serializable: %s", rep.Describe())
	}
}

// TestReadsBeforeTracingHaveNoWriter: a read of a version committed
// before the recorder was installed has no writer in the stream; it
// must neither crash nor dangle a WR edge.
func TestReadsBeforeTracingHaveNoWriter(t *testing.T) {
	db := openT(t, core.SnapshotFUW)
	w := db.Begin()
	set(t, w, 1, 5)
	commit(t, w)
	rec := record(db)
	r := db.Begin()
	_ = get(t, r, 1)
	commit(t, r)
	rep := verdict(t, db, rec)
	if !rep.OK() || rep.Txns != 1 {
		t.Fatalf("post-install analysis: %s", rep.Describe())
	}
	if rep.Stats.Edges != 0 {
		t.Fatalf("%d edges derived from a lone reader of an untraced version", rep.Stats.Edges)
	}
}

func TestSSIKeepsHistoryAcyclicUnderWriteSkewLoad(t *testing.T) {
	db, rec := newDB(t, core.SerializableSI)
	// Fire many concurrent write-skew attempts; SSI aborts some, and
	// whatever commits must form an acyclic MVSG.
	for round := 0; round < 30; round++ {
		t1 := db.Begin()
		t2 := db.Begin()
		ok1 := txRead(t1, 1) && txRead(t1, 2) && txWrite(t1, 1, int64(round))
		ok2 := txRead(t2, 1) && txRead(t2, 2) && txWrite(t2, 2, int64(round))
		if ok1 {
			_ = t1.Commit()
		} else {
			t1.Abort()
		}
		if ok2 {
			_ = t2.Commit()
		} else {
			t2.Abort()
		}
	}
	if rep := verdict(t, db, rec); !rep.OK() {
		t.Fatalf("SSI produced a cycle: %s", rep.Describe())
	}
}

func txRead(tx *engine.Tx, k int64) bool {
	_, err := tx.Get("T", core.Int(k))
	return err == nil
}

func txWrite(tx *engine.Tx, k, v int64) bool {
	return tx.Update("T", core.Int(k), kv(k, v)) == nil
}

func TestDepKindString(t *testing.T) {
	if WR.String() != "wr" || WW.String() != "ww" || RW.String() != "rw" {
		t.Fatal("DepKind names changed")
	}
}
