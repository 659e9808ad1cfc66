package wal_test

import (
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/wal"
)

// fuzzSegments splits raw fuzz bytes into a segment layout: the first
// byte pair picks the segment count and a starting index, the rest is
// the stream, cut at positions derived from the data itself. The
// classifier must never panic — it may reject the layout (gaps,
// duplicate indices, torn sealed segments) or classify a valid prefix.
func fuzzSegments(data []byte) []wal.SegmentData {
	if len(data) < 2 {
		return []wal.SegmentData{{Index: 0, Data: data}}
	}
	n := int(data[0]%4) + 1
	start := int(data[1] % 3)
	body := data[2:]
	segs := make([]wal.SegmentData, 0, n)
	for i := 0; i < n; i++ {
		cut := len(body) * (i + 1) / n
		prev := len(body) * i / n
		idx := start + i
		if data[1]&0x80 != 0 && i == n-1 {
			idx++ // sometimes leave a gap before the last segment
		}
		segs = append(segs, wal.SegmentData{Index: idx, Data: body[prev:cut]})
	}
	return segs
}

// FuzzRecoverSegments drives arbitrary multi-segment layouts through
// ClassifySegments and the full engine rebuild. Invariants: never
// panic; when classification succeeds, scan accounting matches the
// concatenated length; rejected layouts (missing middles, corrupt
// sealed segments) error rather than "recover".
func FuzzRecoverSegments(f *testing.F) {
	schema := core.Schema{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt, NotNull: true},
			{Name: "v", Kind: core.KindInt},
		},
		PK: 0,
	}
	commit := func(csn uint64) []byte {
		return wal.EncodeCommit(&wal.CommitFrame{
			TxID: csn + 10, CSN: csn,
			Rows: []wal.RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1), core.Int(int64(csn))}}},
		})
	}
	// Torn tail in segment N: two commits then a truncated third.
	stream := append(wal.EncodeSchema(&schema), commit(1)...)
	stream = append(stream, commit(2)...)
	tornTail := append(append([]byte(nil), stream...), commit(3)[:5]...)
	f.Add([]byte{2, 0}, tornTail)        // two segments, torn in the last
	f.Add([]byte{3, 0}, stream)          // three clean segments, frames split at boundaries
	f.Add([]byte{2, 0x80}, stream)       // gap before the last segment: must be rejected
	f.Add([]byte{1, 1}, stream)          // single segment, nonzero start index
	f.Add([]byte{4, 0}, commit(1))       // tiny frames over many segments
	f.Add([]byte{2, 0}, []byte{1, 2, 3}) // garbage
	f.Add([]byte{0, 0}, []byte{})        // empty

	// Fuzzy checkpoint chain layouts: a full root link, a redo commit, a
	// delta link based on it — then the same stream with the last link
	// torn mid-batch, and with the link's frames straddling boundaries.
	link := func(base, cut uint64, rows []wal.DeltaRow) []byte {
		out := wal.EncodeDeltaBegin(&wal.DeltaBegin{CSN: cut, Base: base, Schemas: []core.Schema{schema}})
		out = append(out, wal.EncodeDeltaRows(&wal.DeltaRows{CSN: cut, Rows: rows})...)
		return append(out, wal.EncodeDeltaEnd(&wal.DeltaEnd{CSN: cut, Rows: uint64(len(rows))})...)
	}
	chain := append(wal.EncodeSchema(&schema),
		link(0, 2, []wal.DeltaRow{{Table: "t", Key: core.Int(1), CSN: 2, Rec: core.Record{core.Int(1), core.Int(2)}}})...)
	chain = append(chain, commit(3)...)
	lastLink := link(2, 3, []wal.DeltaRow{
		{Table: "t", Key: core.Int(1), CSN: 3, Rec: core.Record{core.Int(1), core.Int(3)}},
		{Table: "t", Key: core.Int(2)}, // tombstone image
	})
	f.Add([]byte{2, 0}, append(append([]byte(nil), chain...), lastLink...))                   // complete chain over two segments
	f.Add([]byte{4, 0}, append(append([]byte(nil), chain...), lastLink...))                   // chain frames straddling boundaries
	f.Add([]byte{3, 0}, append(append([]byte(nil), chain...), lastLink[:9]...))               // torn mid-begin of the last link
	f.Add([]byte{2, 0}, append(append([]byte(nil), chain...), lastLink[:len(lastLink)-5]...)) // torn before the end marker

	f.Fuzz(func(t *testing.T, head, body []byte) {
		segs := fuzzSegments(append(append([]byte(nil), head...), body...))
		total := 0
		for _, s := range segs {
			total += len(s.Data)
		}
		info, err := wal.ClassifySegments(segs)
		if err != nil {
			return // rejected layout; no panic is the property
		}
		if info.ValidBytes+info.TornBytes != total {
			t.Fatalf("scan accounting: %d valid + %d torn != %d", info.ValidBytes, info.TornBytes, total)
		}
		if info.Segments != len(segs) {
			t.Fatalf("info.Segments = %d, layout has %d", info.Segments, len(segs))
		}
		// The accepted layout must also rebuild (or error) without
		// panicking.
		log, err := wal.NewMemSegmentLogFrom(segs, 0)
		if err != nil {
			t.Fatalf("accepted layout does not load: %v", err)
		}
		db, _, rerr := engine.Recover(log, engine.Config{})
		if rerr == nil {
			db.Close()
		}
	})
}

// FuzzParseSegmentName pins the segment-name parser: it must never
// panic, must round-trip every canonical name, and must accept only
// strings SegmentName could have produced (modulo zero-padding width).
func FuzzParseSegmentName(f *testing.F) {
	f.Add("wal.0000")
	f.Add("wal.0042")
	f.Add("wal.123456789")
	f.Add("wal.1234567890")
	f.Add("wal.-001")
	f.Add("wal.00.0")
	f.Add("wal.0000.tmp")
	f.Add("")
	f.Add("wal.")
	f.Add("\x00\xff")

	f.Fuzz(func(t *testing.T, name string) {
		idx, ok := wal.ParseSegmentName(name)
		if !ok {
			return
		}
		if idx < 0 || idx > 999999999 {
			t.Fatalf("ParseSegmentName(%q) = %d out of range", name, idx)
		}
		// Accepted names must consist of the prefix plus digits only, and
		// the canonical spelling of idx must parse back to idx.
		if got, ok2 := wal.ParseSegmentName(wal.SegmentName(idx)); !ok2 || got != idx {
			t.Fatalf("round trip %q -> %d -> %q failed", name, idx, wal.SegmentName(idx))
		}
	})
}
