package wal

import (
	"sort"

	"sicost/internal/core"
	"sicost/internal/storage"
)

// SnapshotDelta resolves the after-image of every dirty key as of cut:
// the newest committed version with csn <= cut, or a tombstone when the
// key was deleted (or never live) at the cut. It does NOT need the
// commit barrier while it runs — versions with csn <= cut are immutable
// once published, so commits stamping newer versions concurrently never
// perturb the result. The caller guarantees only
// that the dirty set was drained under the barrier at cut (every
// commit <= cut has marked its keys; keys dirtied by later commits
// belong to the next epoch).
//
// Keys are resolved in sorted (table, key) order so the streamed link
// is deterministic for a given dirty set.
func SnapshotDelta(store *storage.Store, dirty map[string][]core.Value, cut uint64) []DeltaRow {
	names := make([]string, 0, len(dirty))
	for name := range dirty {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []DeltaRow
	for _, name := range names {
		t, err := store.Table(name)
		if err != nil {
			continue // table dropped out from under the epoch; nothing to fold
		}
		keys := dirty[name]
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		for _, k := range keys {
			dr := DeltaRow{Table: name, Key: k}
			if row := t.Row(k); row != nil {
				for c := row.Head(); c != nil; c = c.Prev {
					if csn := c.CSN(); csn != 0 && csn <= cut {
						dr.CSN = csn
						dr.Rec = c.Rec // nil for a tombstone version
						break
					}
				}
			}
			out = append(out, dr)
		}
	}
	return out
}

// SnapshotAll streams every live row as of cut as DeltaRow images —
// the payload of a full (Base == 0) chain link. Like SnapshotDelta it
// runs without the commit barrier: versions at or below the cut are
// immutable, and keys born after the cut resolve to nothing. Keys with
// no live version at the cut are skipped entirely — a full link folds
// from an empty map, so a tombstone would carry nothing.
func SnapshotAll(store *storage.Store, cut uint64) []DeltaRow {
	var out []DeltaRow
	for _, name := range store.TableNames() {
		t, err := store.Table(name)
		if err != nil {
			continue
		}
		for _, k := range t.Keys() {
			row := t.Row(k)
			if row == nil {
				continue
			}
			for c := row.Head(); c != nil; c = c.Prev {
				if csn := c.CSN(); csn != 0 && csn <= cut {
					if c.Rec != nil {
						out = append(out, DeltaRow{Table: name, Key: k, CSN: csn, Rec: c.Rec})
					}
					break
				}
			}
		}
	}
	return out
}

// Schemas returns every table schema in the store, sorted by name —
// the set a chain link's begin marker embeds. The caller holds the
// commit barrier (DDL takes its read side), so the set is consistent
// with the cut.
func Schemas(store *storage.Store) []core.Schema {
	var out []core.Schema
	for _, name := range store.TableNames() {
		t, err := store.Table(name)
		if err != nil {
			continue
		}
		out = append(out, *t.Schema())
	}
	return out
}
