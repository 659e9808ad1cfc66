// Command walinspect dumps and validates a write-ahead log: a directory
// of wal.NNNN segments (the cmd/smallbank -wal layout). It validates the
// layout — contiguous indices, no corruption in sealed segments — scans
// the concatenated frame stream (length + CRC32C framing, see
// internal/wal; frames may straddle segment boundaries), reports the
// classification recovery would act on — folded checkpoint chain,
// schemas in effect, redo commits, CSN high-water mark — and flags a
// torn or corrupt tail. With -repair it truncates the log to the valid
// prefix, exactly what engine recovery would do.
//
// Checkpoints appear as delta-begin/delta-rows/delta-end frame triples;
// the classification reports the folded chain (root plus complete
// links) exactly as recovery would fold it. For point-in-time recovery
// over retired segments, -archive merges a directory of archived
// wal.NNNN segments in front of the live ones before validating and
// classifying the combined layout.
//
// Usage:
//
//	walinspect waldir/                  # summary + torn-tail verdict
//	walinspect -frames waldir/          # additionally dump every frame
//	walinspect -repair waldir/          # truncate the torn tail in place
//	walinspect -archive waldir/archive waldir/   # classify archived + live segments
//
// Exit status is 1 on a torn tail left unrepaired, 2 on usage, I/O or
// segment-layout errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"sicost/internal/wal"
)

func main() {
	var (
		frames  = flag.Bool("frames", false, "dump every decoded frame")
		repair  = flag.Bool("repair", false, "truncate a torn tail in place")
		archive = flag.String("archive", "", "directory of archived wal.NNNN segments to merge before the live ones (PITR)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: walinspect [-frames] [-repair] [-archive dir] <segmentdir>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	st, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "walinspect:", err)
		os.Exit(2)
	}
	if !st.IsDir() {
		fmt.Fprintf(os.Stderr, "walinspect: %s is not a directory of wal.NNNN segments\n", path)
		os.Exit(2)
	}
	if *repair && *archive != "" {
		fmt.Fprintln(os.Stderr, "walinspect: -repair cannot be combined with -archive (repair the live directory alone)")
		os.Exit(2)
	}
	inspectSegments(path, *archive, *frames, *repair)
}

// printClassification prints the recovery-relevant view of a classified
// log: checkpoint, schemas, redo span and CSN high-water mark.
func printClassification(info *wal.RecoveryInfo) {
	if info.Checkpoint != nil {
		rows := 0
		for _, t := range info.Checkpoint.Tables {
			rows += len(t.Rows)
		}
		fmt.Printf("checkpoint: CSN %d, %d tables, %d rows (folded from a chain of %d links)\n",
			info.Checkpoint.CSN, len(info.Checkpoint.Tables), rows, info.ChainLinks)
	} else {
		fmt.Println("checkpoint: none (recovery replays the full log)")
	}
	for _, s := range info.Schemas {
		fmt.Printf("schema: %s (%d columns, %d unique indexes)\n", s.Name, len(s.Columns), len(s.Unique))
	}
	if n := len(info.Commits); n > 0 {
		fmt.Printf("redo: %d commits, CSN %d..%d\n", n, info.Commits[0].CSN, info.Commits[n-1].CSN)
	} else {
		fmt.Println("redo: no commits beyond the checkpoint")
	}
	fmt.Printf("high-water CSN: %d\n", info.HighCSN)
}

// inspectSegments validates and classifies a directory of wal.NNNN
// segments: layout errors (index gaps, duplicates, corruption inside a
// sealed segment, a legacy checkpoint frame) are fatal; a torn tail in
// the LAST segment is repairable, truncated across segments with
// -repair.
func inspectSegments(dir, archiveDir string, frames, repair bool) {
	segs, total := readSegments(dir)
	if archiveDir != "" {
		arch, atotal := readSegments(archiveDir)
		segs = append(arch, segs...)
		total += atotal
		sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	}
	if len(segs) == 0 {
		fmt.Fprintf(os.Stderr, "walinspect: %s: no wal.NNNN segments\n", dir)
		os.Exit(2)
	}
	info, err := wal.ClassifySegments(segs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "walinspect:", err)
		os.Exit(2)
	}
	fmt.Printf("%s: %d segments, %d bytes, %d valid frames in %d bytes\n",
		dir, info.Segments, total, info.Frames, info.ValidBytes)
	printSegmentSpans(segs)
	if frames {
		var all []byte
		for _, s := range segs {
			all = append(all, s.Data...)
		}
		dumpFrames(all)
	}
	printClassification(info)

	if info.TornBytes == 0 {
		fmt.Println("tail: clean")
		return
	}
	fmt.Printf("tail: TORN — %d bytes past stream offset %d do not decode\n", info.TornBytes, info.ValidBytes)
	if !repair {
		fmt.Println("run with -repair to truncate to the valid prefix")
		os.Exit(1)
	}
	sl, err := wal.OpenSegmentLog(dir, 1<<30)
	if err != nil {
		fmt.Fprintln(os.Stderr, "walinspect: repair:", err)
		os.Exit(2)
	}
	if err := sl.TruncateTail(int64(info.ValidBytes)); err != nil {
		sl.Close()
		fmt.Fprintln(os.Stderr, "walinspect: repair:", err)
		os.Exit(2)
	}
	sl.Close()
	fmt.Printf("repaired: truncated to %d bytes\n", info.ValidBytes)
}

// readSegments loads every wal.NNNN file of dir, sorted by index.
func readSegments(dir string) ([]wal.SegmentData, int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "walinspect:", err)
		os.Exit(2)
	}
	var segs []wal.SegmentData
	total := 0
	for _, e := range entries {
		idx, ok := wal.ParseSegmentName(e.Name())
		if !ok {
			continue
		}
		b, err := os.ReadFile(dir + string(os.PathSeparator) + e.Name())
		if err != nil {
			fmt.Fprintln(os.Stderr, "walinspect:", err)
			os.Exit(2)
		}
		segs = append(segs, wal.SegmentData{Index: idx, Data: b})
		total += len(b)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	return segs, total
}

// printSegmentSpans prints one line per segment with the commit-CSN
// range of the frames that START inside it — the map a point-in-time
// recovery uses to pick which segment prefix to restore. Frames are
// decoded from the concatenation (they may straddle boundaries) and
// attributed to the segment holding their first byte.
func printSegmentSpans(segs []wal.SegmentData) {
	var all []byte
	starts := make([]int, len(segs))
	for i, s := range segs {
		starts[i] = len(all)
		all = append(all, s.Data...)
	}
	type span struct{ lo, hi uint64 }
	spans := make([]span, len(segs))
	seg := 0
	for off := 0; off < len(all); {
		f, n, err := wal.DecodeFrameAt(all, off)
		if err != nil {
			break
		}
		for seg+1 < len(segs) && off >= starts[seg+1] {
			seg++
		}
		if f.Commit != nil {
			sp := &spans[seg]
			if sp.lo == 0 || f.Commit.CSN < sp.lo {
				sp.lo = f.Commit.CSN
			}
			if f.Commit.CSN > sp.hi {
				sp.hi = f.Commit.CSN
			}
		}
		off += n
	}
	for i, s := range segs {
		if spans[i].lo == 0 {
			fmt.Printf("  %s: %d bytes, no commits\n", wal.SegmentName(s.Index), len(s.Data))
			continue
		}
		fmt.Printf("  %s: %d bytes, commits CSN %d..%d\n",
			wal.SegmentName(s.Index), len(s.Data), spans[i].lo, spans[i].hi)
	}
}

// dumpFrames walks the log and prints one line per decodable frame.
func dumpFrames(b []byte) {
	off := 0
	for i := 0; ; i++ {
		f, n, err := wal.DecodeFrameAt(b, off)
		if err != nil {
			return
		}
		switch {
		case f.Commit != nil:
			fmt.Printf("  [%d] @%d commit tx=%d csn=%d rows=%d (%d bytes)\n",
				i, off, f.Commit.TxID, f.Commit.CSN, len(f.Commit.Rows), n)
		case f.Schema != nil:
			fmt.Printf("  [%d] @%d schema %s (%d bytes)\n", i, off, f.Schema.Name, n)
		case f.DeltaBegin != nil:
			kind := "delta"
			if f.DeltaBegin.Base == 0 {
				kind = "full"
			}
			fmt.Printf("  [%d] @%d delta-begin %s csn=%d base=%d schemas=%d (%d bytes)\n",
				i, off, kind, f.DeltaBegin.CSN, f.DeltaBegin.Base, len(f.DeltaBegin.Schemas), n)
		case f.DeltaRows != nil:
			fmt.Printf("  [%d] @%d delta-rows csn=%d rows=%d (%d bytes)\n",
				i, off, f.DeltaRows.CSN, len(f.DeltaRows.Rows), n)
		case f.DeltaEnd != nil:
			fmt.Printf("  [%d] @%d delta-end csn=%d rows=%d (%d bytes)\n",
				i, off, f.DeltaEnd.CSN, f.DeltaEnd.Rows, n)
		}
		off += n
	}
}
