package onlinecheck_test

import (
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/onlinecheck"
	"sicost/internal/trace"
)

// ev builds one synthetic lifecycle event (the tests feed hand-crafted
// streams; table "H" matches the histories fixtures).
func ev(kind trace.Kind, tx uint64, key string, csn uint64) trace.Event {
	e := trace.Event{Kind: kind, Tx: tx, CSN: csn}
	if key != "" {
		e.Table = "H"
		e.Key = core.Str(key)
	}
	return e
}

// TestWriteSkewCycle feeds the canonical write-skew stream — two
// transactions on one snapshot, disjoint writes over a shared read set —
// and expects exactly one cycle, classified.
func TestWriteSkewCycle(t *testing.T) {
	stream := []trace.Event{
		ev(trace.EvBegin, 1, "", 10),
		ev(trace.EvBegin, 2, "", 10),
		ev(trace.EvReadVer, 1, "x", 5),
		ev(trace.EvReadVer, 1, "y", 5),
		ev(trace.EvReadVer, 2, "x", 5),
		ev(trace.EvReadVer, 2, "y", 5),
		ev(trace.EvWriteVer, 1, "x", 11),
		ev(trace.EvCommit, 1, "", 11),
		ev(trace.EvWriteVer, 2, "y", 12),
		ev(trace.EvCommit, 2, "", 12),
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true})
	if rep.Serializable {
		t.Fatal("write skew not detected")
	}
	if rep.Stats.Cycles != 1 || rep.SIViolations != 0 {
		t.Fatalf("want 1 cycle, 0 SI violations; got %d / %d", rep.Stats.Cycles, rep.SIViolations)
	}
	v := rep.Violations[0]
	if v.Kind != onlinecheck.Cycle || v.Anomaly != "write skew" {
		t.Fatalf("violation = %s, want write-skew cycle", v)
	}
	if len(v.Txs) != 3 || v.Txs[0] != v.Txs[len(v.Txs)-1] {
		t.Fatalf("cycle txs not closed: %v", v.Txs)
	}
	if len(v.Edges) != 2 {
		t.Fatalf("write skew should have a 2-edge witness, got %v", v.Edges)
	}
}

// TestSerialChainRetires runs three sequential read-modify-write
// transactions in three drain passes and checks the window actually
// retires: memory is O(window), not O(history).
func TestSerialChainRetires(t *testing.T) {
	c := onlinecheck.New(onlinecheck.Config{SIRules: true})
	c.Ingest([]trace.Event{
		ev(trace.EvBegin, 1, "", 0),
		ev(trace.EvWriteVer, 1, "x", 1),
		ev(trace.EvCommit, 1, "", 1),
	})
	c.Ingest([]trace.Event{
		ev(trace.EvBegin, 2, "", 1),
		ev(trace.EvReadVer, 2, "x", 1),
		ev(trace.EvWriteVer, 2, "x", 2),
		ev(trace.EvCommit, 2, "", 2),
	})
	c.Ingest([]trace.Event{
		ev(trace.EvBegin, 3, "", 2),
		ev(trace.EvReadVer, 3, "x", 2),
		ev(trace.EvWriteVer, 3, "x", 3),
		ev(trace.EvCommit, 3, "", 3),
	})
	rep := c.Finalize()
	if !rep.Serializable || rep.SIViolations != 0 {
		t.Fatalf("serial chain flagged: %s", rep.Describe())
	}
	if rep.Stats.Retired != 2 {
		t.Fatalf("retired = %d, want 2 (only the newest commit may be unretirable)", rep.Stats.Retired)
	}
	if rep.Stats.MaxWindow > 2 {
		t.Fatalf("window peaked at %d; sequential traffic must stay <= 2", rep.Stats.MaxWindow)
	}
	// WR+WW per handoff (two handoffs); the checker stores only
	// reader→first-next-writer
	// antidependencies (t2's first next writer after version 1 is t2
	// itself — self-edges are skipped), so a hot item stays linear in
	// the window rather than quadratic.
	if rep.Stats.Edges != 4 {
		t.Fatalf("edges = %d, want 4", rep.Stats.Edges)
	}
}

// TestLostUpdate checks the First-Updater-Wins rule: two concurrent
// committed writers of one item are an SI violation (though the history
// is WW-serializable, so the verdict stays serializable).
func TestLostUpdate(t *testing.T) {
	stream := []trace.Event{
		ev(trace.EvBegin, 1, "", 1),
		ev(trace.EvBegin, 2, "", 1),
		ev(trace.EvWriteVer, 1, "x", 2),
		ev(trace.EvCommit, 1, "", 2),
		ev(trace.EvWriteVer, 2, "x", 3),
		ev(trace.EvCommit, 2, "", 3),
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true})
	if !rep.Serializable {
		t.Fatalf("blind WW overwrite is serializable: %s", rep.Describe())
	}
	if rep.SIViolations != 1 || rep.Violations[0].Kind != onlinecheck.LostUpdate {
		t.Fatalf("want one lost-update violation, got %s", rep.Describe())
	}
	v := rep.Violations[0]
	if v.CSN != 2 || len(v.Txs) != 2 {
		t.Fatalf("lost-update provenance wrong: %s", v)
	}
	// The same stream under 2PL semantics (SIRules off) is clean.
	if rep := onlinecheck.Run(stream, onlinecheck.Config{}); rep.SIViolations != 0 {
		t.Fatalf("SIRules off must not flag: %s", rep.Describe())
	}
}

// TestStaleRead: a transaction whose snapshot contains version 2 of x
// read version 1 — the snapshot rule is broken even though nothing
// cycles.
func TestStaleRead(t *testing.T) {
	stream := []trace.Event{
		ev(trace.EvBegin, 1, "", 0),
		ev(trace.EvWriteVer, 1, "x", 1),
		ev(trace.EvCommit, 1, "", 1),
		ev(trace.EvBegin, 2, "", 1),
		ev(trace.EvWriteVer, 2, "x", 2),
		ev(trace.EvCommit, 2, "", 2),
		ev(trace.EvBegin, 3, "", 3),
		ev(trace.EvReadVer, 3, "x", 1),
		ev(trace.EvCommit, 3, "", 3),
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true})
	var stale int
	for _, v := range rep.Violations {
		if v.Kind == onlinecheck.StaleRead {
			stale++
			if v.CSN != 2 {
				t.Fatalf("stale-read witness CSN = %d, want 2 (the version the snapshot should have seen)", v.CSN)
			}
		}
	}
	if stale != 1 {
		t.Fatalf("want exactly one stale read, got %s", rep.Describe())
	}
}

// TestFutureRead: reading a version newer than the snapshot violates SI
// but is legitimate under 2PL (SIRules off).
func TestFutureRead(t *testing.T) {
	stream := []trace.Event{
		ev(trace.EvBegin, 1, "", 0),
		ev(trace.EvWriteVer, 1, "x", 2),
		ev(trace.EvCommit, 1, "", 2),
		ev(trace.EvBegin, 2, "", 1),
		ev(trace.EvReadVer, 2, "x", 2),
		ev(trace.EvCommit, 2, "", 2),
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true})
	if rep.SIViolations != 1 || rep.Violations[0].Kind != onlinecheck.FutureRead {
		t.Fatalf("want one future-read violation, got %s", rep.Describe())
	}
	if rep := onlinecheck.Run(stream, onlinecheck.Config{}); rep.SIViolations != 0 {
		t.Fatalf("future read must be fine without SI rules: %s", rep.Describe())
	}
}

// TestAbortDiscards: aborted transactions leave nothing behind — no
// versions, no readers, no edges.
func TestAbortDiscards(t *testing.T) {
	stream := []trace.Event{
		ev(trace.EvBegin, 1, "", 5),
		ev(trace.EvReadVer, 1, "x", 3),
		ev(trace.EvAbort, 1, "", 0),
		ev(trace.EvBegin, 2, "", 5),
		ev(trace.EvWriteVer, 2, "x", 6),
		ev(trace.EvCommit, 2, "", 6),
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true})
	if !rep.Serializable || rep.SIViolations != 0 {
		t.Fatalf("abort leaked state: %s", rep.Describe())
	}
	if rep.Stats.Aborts != 1 || rep.Stats.Commits != 1 || rep.Stats.Edges != 0 {
		t.Fatalf("aborts=%d commits=%d edges=%d, want 1/1/0",
			rep.Stats.Aborts, rep.Stats.Commits, rep.Stats.Edges)
	}
}

// TestGapCommitSkipsSIRules: a commit whose begin was lost (ring
// overflow) still integrates for cycle checking, but the SI rules —
// which need the snapshot point — are skipped rather than risk a false
// alarm.
func TestGapCommitSkipsSIRules(t *testing.T) {
	stream := []trace.Event{
		ev(trace.EvReadVer, 1, "x", 99), // would be a future read if begun
		ev(trace.EvWriteVer, 1, "x", 5),
		ev(trace.EvCommit, 1, "", 5),
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true})
	if rep.Stats.GapTxs != 1 {
		t.Fatalf("GapTxs = %d, want 1", rep.Stats.GapTxs)
	}
	if rep.SIViolations != 0 || !rep.Serializable {
		t.Fatalf("gap transaction must not produce verdicts: %s", rep.Describe())
	}
}

// TestMalformedStream: duplicate terminals, post-commit traffic, version
// collisions and unknown kinds are counted and ignored, never panic.
func TestMalformedStream(t *testing.T) {
	stream := []trace.Event{
		ev(trace.EvBegin, 1, "", 0),
		ev(trace.EvWriteVer, 1, "x", 1),
		ev(trace.EvCommit, 1, "", 1),
		ev(trace.EvCommit, 1, "", 7),   // duplicate commit
		ev(trace.EvBegin, 1, "", 0),    // begin after commit
		ev(trace.EvAbort, 1, "", 0),    // terminal after commit
		ev(trace.Kind(200), 2, "x", 3), // unknown kind
		ev(trace.EvBegin, 2, "", 1),
		ev(trace.EvWriteVer, 2, "x", 1), // collides with tx 1's version
		ev(trace.EvCommit, 2, "", 9),
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true})
	if rep.Stats.UnknownKind != 1 {
		t.Fatalf("UnknownKind = %d, want 1", rep.Stats.UnknownKind)
	}
	if rep.Stats.Ignored < 4 {
		t.Fatalf("Ignored = %d, want >= 4 (dup commit, late begin, late abort, csn collision)", rep.Stats.Ignored)
	}
	if rep.Stats.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", rep.Stats.Commits)
	}
}

// TestRunChunkedWindowBound replays a long sequential history with a
// small batch size and checks the window stays bounded while the
// verdict stays exact.
func TestRunChunkedWindowBound(t *testing.T) {
	const n = 200
	var stream []trace.Event
	for i := uint64(1); i <= n; i++ {
		stream = append(stream, ev(trace.EvBegin, i, "", i-1))
		if i > 1 {
			stream = append(stream, ev(trace.EvReadVer, i, "x", i-1))
		}
		stream = append(stream, ev(trace.EvWriteVer, i, "x", i))
		stream = append(stream, ev(trace.EvCommit, i, "", i))
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true, Batch: 16})
	if !rep.Serializable || rep.SIViolations != 0 {
		t.Fatalf("sequential history flagged: %s", rep.Describe())
	}
	if rep.Txns != n {
		t.Fatalf("integrated %d txns, want %d", rep.Txns, n)
	}
	if rep.Stats.MaxWindow > 24 {
		t.Fatalf("window peaked at %d on sequential traffic with batch 16", rep.Stats.MaxWindow)
	}
	if rep.Stats.Retired < n-24 {
		t.Fatalf("retired only %d of %d", rep.Stats.Retired, n)
	}
}

// TestDeterminism: the same stream always yields the identical report.
func TestDeterminism(t *testing.T) {
	stream := []trace.Event{
		ev(trace.EvBegin, 1, "", 10),
		ev(trace.EvBegin, 2, "", 10),
		ev(trace.EvReadVer, 1, "y", 5),
		ev(trace.EvReadVer, 2, "x", 5),
		ev(trace.EvWriteVer, 1, "x", 11),
		ev(trace.EvCommit, 1, "", 11),
		ev(trace.EvWriteVer, 2, "y", 12),
		ev(trace.EvCommit, 2, "", 12),
	}
	a := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true}).Describe()
	b := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true}).Describe()
	if a != b {
		t.Fatalf("nondeterministic reports:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty report")
	}
}

// TestViolationRetentionCap: the structured list is capped, the
// counters are not.
func TestViolationRetentionCap(t *testing.T) {
	var stream []trace.Event
	// Ten concurrent committed writers of one item: every later one
	// conflicts with every earlier one.
	for i := uint64(1); i <= 10; i++ {
		stream = append(stream, ev(trace.EvBegin, i, "", 0))
	}
	for i := uint64(1); i <= 10; i++ {
		stream = append(stream,
			ev(trace.EvWriteVer, i, "x", i),
			ev(trace.EvCommit, i, "", i))
	}
	rep := onlinecheck.Run(stream, onlinecheck.Config{SIRules: true, MaxViolations: 3})
	if len(rep.Violations) != 3 {
		t.Fatalf("retained %d violations, cap is 3", len(rep.Violations))
	}
	if rep.SIViolations != 45 { // C(10,2) pairs all conflict
		t.Fatalf("SIViolations = %d, want 45", rep.SIViolations)
	}
}

// TestLiveSubscription wires the checker to a real engine through the
// recorder and subscription: sequential transfers must come out
// serializable with the window retired behind the watermark.
func TestLiveSubscription(t *testing.T) {
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW})
	defer db.Close()
	schema := &core.Schema{
		Name: "acct",
		Columns: []core.Column{
			{Name: "K", Kind: core.KindString, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for _, k := range []string{"a", "b"} {
		if err := seed.Insert("acct", core.Record{core.Str(k), core.Int(100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	rec := trace.New(trace.Options{Shards: 1, ShardCap: 1 << 12})
	db.SetTracer(rec)
	chk, sub := onlinecheck.Attach(rec, onlinecheck.Config{SIRules: true}, trace.SubOptions{})

	for i := 0; i < 50; i++ {
		tx := db.Begin()
		ra, err := tx.Get("acct", core.Str("a"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("acct", core.Str("a"), core.Record{core.Str("a"), core.Int(ra[1].Int64() - 1)}); err != nil {
			t.Fatal(err)
		}
		rb, err := tx.Get("acct", core.Str("b"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("acct", core.Str("b"), core.Record{core.Str("b"), core.Int(rb[1].Int64() + 1)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Force a pass boundary every few transactions so retirement has
		// floors to advance through.
		if i%5 == 4 {
			sub.Flush()
		}
	}
	sub.Close()
	rep := chk.Finalize()
	if !rep.Serializable || rep.SIViolations != 0 {
		t.Fatalf("sequential transfers flagged: %s", rep.Describe())
	}
	if rep.Txns != 50 {
		t.Fatalf("checked %d transactions, want 50", rep.Txns)
	}
	if rep.Stats.Retired == 0 {
		t.Fatal("window never retired across pass boundaries")
	}
	if rep.Stats.MaxWindow >= 50 {
		t.Fatalf("window grew like history: peak %d", rep.Stats.MaxWindow)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
}

// TestStatsSnapshot: Stats is usable mid-stream (the expvar surface).
func TestStatsSnapshot(t *testing.T) {
	c := onlinecheck.New(onlinecheck.Config{SIRules: true})
	c.Ingest([]trace.Event{
		ev(trace.EvBegin, 1, "", 0),
		ev(trace.EvReadVer, 1, "x", 0),
	})
	s := c.Stats()
	if s.Pending != 1 || s.Window != 0 || s.Events != 2 {
		t.Fatalf("mid-stream stats wrong: %+v", s)
	}
	c.Ingest([]trace.Event{ev(trace.EvCommit, 1, "", 1)})
	if s := c.Stats(); s.Pending != 0 || s.Window != 1 {
		t.Fatalf("post-commit stats wrong: %+v", s)
	}
}
