package engine

import (
	"fmt"

	"sicost/internal/core"
	"sicost/internal/storage"
	"sicost/internal/trace"
	"sicost/internal/wal"
)

// RecoveryReport summarizes what Recover rebuilt.
type RecoveryReport struct {
	// Log is the log-scan result: checkpoint chain found, redo frames,
	// torn bytes discarded.
	Log *wal.RecoveryInfo
	// Tables is the number of table definitions restored.
	Tables int
	// CheckpointRows counts rows restored from the folded checkpoint
	// chain; ReplayedCommits and ReplayedRows count the redo work after
	// it.
	CheckpointRows  int
	ReplayedCommits int
	ReplayedRows    int
	// HighCSN is the restored commit-sequence high-water mark; the
	// first post-recovery commit gets HighCSN+1.
	HighCSN uint64
}

// Recover rebuilds a database from a segment log: ARIES-style redo-only
// recovery over the committed row images the WAL persists. The scan
// truncates any torn tail (repairing the log in place), the folded
// checkpoint chain is restored verbatim, commit frames beyond its cut
// are replayed in CSN order, unique indexes are rebuilt from the
// recovered final state, and the CSN sequencer resumes from the
// recovered high-water mark. cfg configures the revived instance (mode,
// platform, cost model, faults, tracer); its WAL device is forced to
// log, so the revived database keeps appending to the same log.
//
// Recovery is idempotent: recovering the same log twice — or a log and
// its post-repair copy — yields identical state, because the first
// pass's only write is the torn-tail truncation.
//
// Recovered versions carry Creator 0, an id no live transaction ever
// holds (transaction ids start at 1), so own-write visibility rules
// cannot confuse replayed rows with a resumed session's writes.
func Recover(log *wal.SegmentLog, cfg Config) (*DB, *RecoveryReport, error) {
	info, err := wal.Recover(log)
	if err != nil {
		return nil, nil, err
	}

	cfg.WAL.Device = log
	db := Open(cfg)
	report := &RecoveryReport{Log: info, HighCSN: info.HighCSN}

	fail := func(err error) (*DB, *RecoveryReport, error) {
		db.Close()
		return nil, nil, err
	}

	// Table definitions. db.store.CreateTable, not db.CreateTable: the
	// schemas are already durable, and the DB-level method would append
	// duplicate DDL frames.
	for i := range info.Schemas {
		s := info.Schemas[i]
		if _, err := db.store.CreateTable(&s); err != nil {
			return fail(fmt.Errorf("engine: recover: %w", err))
		}
		report.Tables++
	}

	// Folded checkpoint chain: install every row verbatim, preserving its
	// commit CSN so the recovered version chain matches the crashed one.
	if info.Checkpoint != nil {
		for _, t := range info.Checkpoint.Tables {
			tbl, err := db.store.Table(t.Schema.Name)
			if err != nil {
				return fail(fmt.Errorf("engine: recover: %w", err))
			}
			for _, r := range t.Rows {
				if r.CSN == 0 || r.CSN > info.Checkpoint.CSN {
					return fail(fmt.Errorf("engine: recover: checkpoint row %s/%v has CSN %d outside (0, %d]",
						t.Schema.Name, r.Key, r.CSN, info.Checkpoint.CSN))
				}
				if err := installRecovered(tbl, r.Key, r.Rec, r.CSN); err != nil {
					return fail(err)
				}
				report.CheckpointRows++
			}
		}
	}

	// Redo replay, in CSN order. Per-row log order equals per-row CSN
	// order (the writer holds the row's X lock from write through
	// publication), so installing each commit's images in ascending CSN
	// leaves every chain newest-first, exactly as the live engine would.
	for _, c := range info.Commits {
		if c.CSN == 0 {
			return fail(fmt.Errorf("engine: recover: commit frame for tx %d carries CSN 0", c.TxID))
		}
		for _, ri := range c.Rows {
			tbl, err := db.store.Table(ri.Table)
			if err != nil {
				return fail(fmt.Errorf("engine: recover: commit %d: %w", c.CSN, err))
			}
			if err := installRecovered(tbl, ri.Key, ri.Rec, c.CSN); err != nil {
				return fail(err)
			}
			// Replayed keys enter the dirty epoch: the first
			// post-recovery delta link bases on the recovered cut, so it
			// must cover the redo work between the cut and the crash.
			tbl.MarkDirty(ri.Key)
			report.ReplayedRows++
		}
		report.ReplayedCommits++
	}

	// Unique secondary indexes are not logged; rebuild them from the
	// recovered final state. Creator 0 plus an immediate per-row Commit
	// stamps each entry with its row's CSN, so snapshot lookups behave
	// as before the crash.
	for _, name := range db.store.TableNames() {
		tbl, err := db.store.Table(name)
		if err != nil {
			return fail(err)
		}
		if len(tbl.Indexes()) == 0 {
			continue
		}
		for _, k := range tbl.Keys() {
			row := tbl.Row(k)
			if row == nil {
				continue
			}
			v := row.NewestCommitted()
			if v == nil || v.Rec == nil {
				continue
			}
			for _, ix := range tbl.Indexes() {
				if err := ix.Insert(0, v.Rec[ix.ColPos()], k); err != nil {
					return fail(fmt.Errorf("engine: recover: index rebuild on %s.%s: %w", name, ix.Column(), err))
				}
				ix.Commit(0, v.CSN())
			}
		}
	}

	// Sequencer restore: new snapshots see everything recovered, and
	// the next commit continues the CSN stream past the high-water mark.
	db.seqMu.Lock()
	db.nextCSN = info.HighCSN
	db.seqMu.Unlock()
	db.visibleCSN.Store(info.HighCSN)
	db.log.ResumeDurable(info.HighCSN)

	// Seed the checkpoint chain state: the next incremental link bases
	// on the recovered cut (the fold's tail), extending the chain the log
	// already holds. The retirement bound stays 0 — the root's segment
	// index is unknown after a restart — so no segment retires until the
	// next full link re-roots the chain.
	if info.Checkpoint != nil {
		db.ckptStateMu.Lock()
		db.chainBase = info.Checkpoint.CSN
		db.chainLinks = info.ChainLinks
		db.chainRootSeg = 0
		db.ckptStateMu.Unlock()
	}

	if db.tracer.Enabled() {
		db.tracer.Emit(trace.Event{
			Kind: trace.EvRecovery, CSN: info.HighCSN,
			Depth: len(info.Commits), Bytes: info.ValidBytes,
		})
	}
	return db, report, nil
}

// installRecovered links one recovered after-image (nil rec =
// tombstone) at the head of a row's chain with its original CSN.
// Recovery is single-threaded, so Install's X-lock precondition is
// trivially met. Live images are schema-checked first: a log whose CRCs
// pass but whose payload disagrees with its own schema frames is
// corrupt, and recovery must reject it rather than panic later (e.g. in
// index rebuild, which indexes record columns by schema position).
func installRecovered(tbl *storage.Table, key core.Value, rec core.Record, csn uint64) error {
	if rec != nil {
		if err := tbl.Schema().CheckRecord(rec); err != nil {
			return fmt.Errorf("engine: recover: %w", err)
		}
		if tbl.Schema().Key(rec) != key {
			return fmt.Errorf("engine: recover: %s row logged under key %v has primary key %v",
				tbl.Name(), key, tbl.Schema().Key(rec))
		}
	}
	row := tbl.EnsureRow(key)
	v := &storage.Version{Rec: rec, Creator: 0}
	row.Install(v)
	v.MarkCommitted(csn)
	return nil
}
