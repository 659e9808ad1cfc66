package wal

import (
	"errors"
	"fmt"
	"sort"

	"sicost/internal/core"
)

// RecoveryInfo is the classified result of scanning a log device: the
// snapshot to start from, the redo work after it, and what the scan
// discarded.
type RecoveryInfo struct {
	// Checkpoint is the snapshot to restore: the checkpoint chain
	// folded into one image (the full root link plus every complete
	// delta link in order). Nil when the log holds no complete full
	// link.
	Checkpoint *Checkpoint
	// ChainLinks is the number of complete links folded into
	// Checkpoint, root included (0 when Checkpoint is nil). A torn or
	// incomplete final link is not counted — recovery falls back to the
	// chain state before it.
	ChainLinks int
	// Schemas are the table definitions in effect: every schema frame
	// in the valid prefix, deduplicated by table name (last wins),
	// merged with the schemas embedded in the checkpoint.
	Schemas []core.Schema
	// Commits are the redo records to replay: every commit frame whose
	// CSN is beyond the checkpoint, sorted by CSN. Each link's begin
	// marker is appended under the engine's commit barrier, so no commit
	// before it carries a CSN above its cut, and CSN filtering and
	// log-position filtering agree.
	Commits []*CommitFrame
	// HighCSN is the recovered commit-sequence high-water mark; the
	// restarted sequencer continues from HighCSN+1.
	HighCSN uint64
	// Frames counts all valid frames scanned (chain links, schemas and
	// commits, including commits the chain already covers).
	Frames int
	// ValidBytes is the length of the valid prefix; TornBytes is what
	// the torn-tail rule discarded (0 for a clean log).
	ValidBytes int
	TornBytes  int
	// Repaired reports that the log was truncated to the valid prefix,
	// so a second recovery sees a clean log.
	Repaired bool
	// Segments is the number of live segments scanned.
	Segments int
}

// Recover scans the log, applies the torn-tail rule, and — when a torn
// or corrupt tail was found — truncates the log to the valid prefix, so
// recovery is idempotent at the byte level too. A log that starts with a
// legacy full-image checkpoint frame fails with ErrLegacyCheckpoint and
// is left untouched. Recover performs no database reconstruction;
// engine.Recover layers that on top.
func Recover(l *SegmentLog) (*RecoveryInfo, error) {
	segs, err := l.Segments()
	if err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	info, err := ClassifySegments(segs)
	if err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	if info.TornBytes > 0 {
		if err := l.TruncateTail(int64(info.ValidBytes)); err != nil {
			return nil, fmt.Errorf("wal: recover: torn-tail repair: %w", err)
		}
		info.Repaired = true
	}
	return info, nil
}

// ClassifySegments validates a segmented log layout and classifies the
// concatenated stream. The layout rules are strict: segment indices
// must be contiguous (a missing middle segment means durable history is
// gone — that is unrecoverable corruption, not a torn tail), and a torn
// or corrupt tail may only begin inside the final segment. A frame that
// straddles a segment boundary is fine — recovery scans the
// concatenation — because rotation seals segments between appends, not
// mid-frame; a torn frame in a *sealed* segment could only come from
// bit rot or truncation of supposedly immutable data, so it is rejected
// rather than repaired. A legacy checkpoint frame where the valid prefix
// ends is rejected with ErrLegacyCheckpoint: to the torn-tail rule it
// would look like garbage, and repairing it away would empty the log.
func ClassifySegments(segs []SegmentData) (*RecoveryInfo, error) {
	if len(segs) == 0 {
		info := Classify(nil)
		return info, nil
	}
	sorted := append([]SegmentData(nil), segs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Index == sorted[i-1].Index {
			return nil, fmt.Errorf("wal: duplicate segment %s", SegmentName(sorted[i].Index))
		}
		if sorted[i].Index != sorted[i-1].Index+1 {
			return nil, fmt.Errorf("wal: segment sequence broken: %s missing (have %s and %s)",
				SegmentName(sorted[i-1].Index+1), SegmentName(sorted[i-1].Index), SegmentName(sorted[i].Index))
		}
	}
	var all []byte
	lastStart := 0
	for i, s := range sorted {
		if i == len(sorted)-1 {
			lastStart = len(all)
		}
		all = append(all, s.Data...)
	}
	info := Classify(all)
	if info.TornBytes > 0 {
		if _, _, err := DecodeFrameAt(all, info.ValidBytes); errors.Is(err, ErrLegacyCheckpoint) {
			return nil, err
		}
	}
	if info.TornBytes > 0 && info.ValidBytes < lastStart {
		return nil, fmt.Errorf("wal: corrupt frame in sealed segment %s (valid prefix %d ends before final segment at %d)",
			SegmentName(sorted[torn(sorted, info.ValidBytes)].Index), info.ValidBytes, lastStart)
	}
	info.Segments = len(sorted)
	return info, nil
}

// chainLink is one complete fuzzy-checkpoint link assembled by the
// classification scan: its begin marker plus every bound rows batch.
type chainLink struct {
	begin *DeltaBegin
	rows  []DeltaRow
}

// foldChain reduces the frame stream's checkpoint chain to one
// synthetic full checkpoint. The scan keeps a running chain — a root
// (a complete link with Base == 0) plus complete delta links each based
// on the previous cut — and a pending link between a begin marker and
// its end marker. A link is complete only when its end marker matches
// the open begin's cut AND its row count; anything else (torn tail
// inside the link, a new begin abandoning the old, a mismatched orphan)
// discards the pending link, so recovery falls back to the chain state
// before it — never a partial fold. Rows batches bind to the pending
// link by cut; unbound batches are ignored (fuzz inputs; a healthy
// engine never interleaves links).
//
// It returns the folded checkpoint (nil when the log has no complete
// full link) and the number of links folded, root included.
func foldChain(frames []Frame) (*Checkpoint, int) {
	var links []*chainLink
	var pending *chainLink
	for i := range frames {
		f := &frames[i]
		switch {
		case f.DeltaBegin != nil:
			pending = &chainLink{begin: f.DeltaBegin}
		case f.DeltaRows != nil:
			if pending != nil && f.DeltaRows.CSN == pending.begin.CSN {
				pending.rows = append(pending.rows, f.DeltaRows.Rows...)
			}
		case f.DeltaEnd != nil:
			if pending == nil || f.DeltaEnd.CSN != pending.begin.CSN ||
				f.DeltaEnd.Rows != uint64(len(pending.rows)) {
				pending = nil
				continue
			}
			switch {
			case pending.begin.Base == 0:
				// A full link roots a fresh chain; earlier links are
				// superseded.
				links = []*chainLink{pending}
			case len(links) > 0 && pending.begin.Base == links[len(links)-1].begin.CSN:
				links = append(links, pending)
				// Orphan links whose base matches nothing are dropped: a
				// healthy engine never writes one (it extends only after
				// the previous end marker synced).
			}
			pending = nil
		}
	}
	if len(links) == 0 {
		return nil, 0
	}

	// Fold: apply each link's after-images in order, starting from an
	// empty map — a tombstone removes the key, a live row installs it.
	live := map[string]map[core.Value]CheckpointRow{}
	for _, ln := range links {
		for _, dr := range ln.rows {
			m := live[dr.Table]
			if dr.Rec == nil {
				if m != nil {
					delete(m, dr.Key)
				}
				continue
			}
			if dr.CSN == 0 || dr.CSN > ln.begin.CSN {
				continue // malformed image (fuzz); a real link never streams it
			}
			if m == nil {
				m = map[core.Value]CheckpointRow{}
				live[dr.Table] = m
			}
			m[dr.Key] = CheckpointRow{Key: dr.Key, CSN: dr.CSN, Rec: dr.Rec}
		}
	}

	// Tables come from the last link's embedded schema set — the
	// definitions as of the final cut — so empty tables survive the fold.
	last := links[len(links)-1]
	ckpt := &Checkpoint{CSN: last.begin.CSN}
	seen := map[string]bool{}
	for _, s := range last.begin.Schemas {
		if seen[s.Name] {
			continue
		}
		seen[s.Name] = true
		ct := CheckpointTable{Schema: s}
		m := live[s.Name]
		keys := make([]core.Value, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		for _, k := range keys {
			ct.Rows = append(ct.Rows, m[k])
		}
		ckpt.Tables = append(ckpt.Tables, ct)
	}
	return ckpt, len(links)
}

// torn returns the position (in sorted order) of the segment containing
// byte offset off of the concatenation.
func torn(sorted []SegmentData, off int) int {
	at := 0
	for i, s := range sorted {
		if off < at+len(s.Data) {
			return i
		}
		at += len(s.Data)
	}
	return len(sorted) - 1
}

// Classify scans a raw log image and organizes its valid prefix into a
// RecoveryInfo without touching any device. The fuzz target calls it
// directly with arbitrary bytes.
func Classify(b []byte) *RecoveryInfo {
	frames, validLen := ScanLog(b)
	info := &RecoveryInfo{
		Frames:     len(frames),
		ValidBytes: validLen,
		TornBytes:  len(b) - validLen,
	}

	// The snapshot to restore: the newest complete chain, folded.
	info.Checkpoint, info.ChainLinks = foldChain(frames)
	cut := uint64(0)
	if info.Checkpoint != nil {
		cut = info.Checkpoint.CSN
		info.HighCSN = cut
	}

	// Schemas: checkpoint-embedded first, then standalone schema
	// frames; last definition of a name wins.
	byName := map[string]int{}
	addSchema := func(s core.Schema) {
		if i, ok := byName[s.Name]; ok {
			info.Schemas[i] = s
			return
		}
		byName[s.Name] = len(info.Schemas)
		info.Schemas = append(info.Schemas, s)
	}
	if info.Checkpoint != nil {
		for _, t := range info.Checkpoint.Tables {
			addSchema(t.Schema)
		}
	}
	for _, f := range frames {
		if f.Schema != nil {
			addSchema(*f.Schema)
		}
	}

	for _, f := range frames {
		if f.Commit == nil {
			continue
		}
		if f.Commit.CSN <= cut {
			continue // already captured by the checkpoint snapshot
		}
		info.Commits = append(info.Commits, f.Commit)
		if f.Commit.CSN > info.HighCSN {
			info.HighCSN = f.Commit.CSN
		}
	}
	if info.Checkpoint != nil {
		for _, t := range info.Checkpoint.Tables {
			for _, r := range t.Rows {
				if r.CSN > info.HighCSN {
					info.HighCSN = r.CSN
				}
			}
		}
	}
	sort.SliceStable(info.Commits, func(i, j int) bool {
		return info.Commits[i].CSN < info.Commits[j].CSN
	})
	return info
}
