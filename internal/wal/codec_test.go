package wal

import (
	"errors"
	"strings"
	"testing"

	"sicost/internal/core"
)

func testSchema() core.Schema {
	return core.Schema{
		Name: "T",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt, NotNull: true},
			{Name: "name", Kind: core.KindString},
		},
		PK:     0,
		Unique: []int{1},
	}
}

func mustDecodeOne(t *testing.T, b []byte) Frame {
	t.Helper()
	f, n, err := DecodeFrameAt(b, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("frame length %d, want %d", n, len(b))
	}
	return f
}

func TestCommitFrameRoundTrip(t *testing.T) {
	in := &CommitFrame{
		TxID: 42, CSN: 99,
		Rows: []RowImage{
			{Table: "Saving", Key: core.Int(7), Rec: core.Record{core.Int(7), core.Int(500)}},
			{Table: "Account", Key: core.Str("cust-1"), Rec: core.Record{core.Str("cust-1"), core.Null()}},
			{Table: "Checking", Key: core.Int(-3), Rec: nil}, // tombstone
		},
	}
	f := mustDecodeOne(t, EncodeCommit(in))
	out := f.Commit
	if out == nil {
		t.Fatal("decoded frame is not a commit")
	}
	if out.TxID != in.TxID || out.CSN != in.CSN || len(out.Rows) != len(in.Rows) {
		t.Fatalf("header round-trip: got %+v", out)
	}
	for i, r := range out.Rows {
		w := in.Rows[i]
		if r.Table != w.Table || r.Key != w.Key {
			t.Fatalf("row %d: got %v/%v, want %v/%v", i, r.Table, r.Key, w.Table, w.Key)
		}
		if (r.Rec == nil) != (w.Rec == nil) {
			t.Fatalf("row %d: liveness flipped (got %v, want %v)", i, r.Rec, w.Rec)
		}
		if r.Rec != nil && !r.Rec.Equal(w.Rec) {
			t.Fatalf("row %d: record %v, want %v", i, r.Rec, w.Rec)
		}
	}
}

// legacyCheckpointFrame hand-builds a legacy full-image checkpoint
// frame (type 2, cut 5, no tables) — the first frame of a log truncated
// by the stop-the-world checkpointer of older builds.
func legacyCheckpointFrame() []byte {
	payload := []byte{frameLegacyCheckpoint}
	payload = appendU64(payload, 5)
	payload = appendU32(payload, 0)
	return frame(payload)
}

func TestLegacyCheckpointFrameRejected(t *testing.T) {
	_, _, err := DecodeFrameAt(legacyCheckpointFrame(), 0)
	if !errors.Is(err, ErrLegacyCheckpoint) {
		t.Fatalf("decode of a type-2 frame = %v, want ErrLegacyCheckpoint", err)
	}
}

func TestSchemaFrameRoundTrip(t *testing.T) {
	s := testSchema()
	f := mustDecodeOne(t, EncodeSchema(&s))
	if f.Schema == nil || f.Schema.Name != "T" || len(f.Schema.Columns) != 2 {
		t.Fatalf("schema frame round-trip: %+v", f.Schema)
	}
}

// TestEveryBitFlipIsRejected corrupts a valid commit frame one byte at a
// time: no single-byte corruption may decode successfully — the CRC (or
// a bounds check) must catch it. This is the framing's whole job.
func TestEveryBitFlipIsRejected(t *testing.T) {
	enc := EncodeCommit(&CommitFrame{
		TxID: 1, CSN: 2,
		Rows: []RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1)}}},
	})
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		if _, n, err := DecodeFrameAt(bad, 0); err == nil && n == len(enc) {
			t.Fatalf("corruption at byte %d decoded as a full valid frame", i)
		}
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	valid := EncodeSchema(&core.Schema{
		Name: "x", Columns: []core.Column{{Name: "c", Kind: core.KindInt, NotNull: true}}, PK: 0,
	})
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     valid[:frameHeaderSize-1],
		"truncated body":   valid[:len(valid)-1],
		"length overflow":  {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"empty payload":    frame(nil),
		"unknown type":     frame([]byte{9}),
		"trailing payload": frame(append([]byte{frameSchema}, append(valid[frameHeaderSize:], 0)...)),
	}
	for name, b := range cases {
		if _, _, err := DecodeFrameAt(b, 0); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// An invalid schema (PK out of range) must be rejected even when the
	// checksum is intact: recovery trusts decoded schemas structurally.
	badSchema := core.Schema{Name: "x", Columns: []core.Column{{Name: "c", Kind: core.KindInt, NotNull: true}}, PK: 0}
	p := []byte{frameSchema}
	p = appendStr(p, badSchema.Name)
	p = appendU32(p, 1)
	p = appendStr(p, "c")
	p = append(p, byte(core.KindInt), 1)
	p = appendU32(p, 7) // PK index 7 of a 1-column table
	p = appendU32(p, 0)
	if _, _, err := DecodeFrameAt(frame(p), 0); err == nil {
		t.Error("schema frame with out-of-range PK decoded without error")
	}
}

func TestScanLogStopsAtTornTail(t *testing.T) {
	a := EncodeCommit(&CommitFrame{TxID: 1, CSN: 1})
	b := EncodeCommit(&CommitFrame{TxID: 2, CSN: 2,
		Rows: []RowImage{{Table: strings.Repeat("x", 40), Key: core.Int(9), Rec: core.Record{core.Int(9)}}}})
	log := append(append([]byte{}, a...), b...)
	torn := append(append([]byte{}, log...), b[:len(b)/2]...)

	frames, valid := ScanLog(torn)
	if len(frames) != 2 {
		t.Fatalf("decoded %d frames, want 2", len(frames))
	}
	if valid != len(log) {
		t.Fatalf("valid prefix %d, want %d", valid, len(log))
	}
	// A clean log scans to its full length.
	if _, valid := ScanLog(log); valid != len(log) {
		t.Fatalf("clean log valid prefix %d, want %d", valid, len(log))
	}
}
