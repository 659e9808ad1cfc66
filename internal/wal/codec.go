package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"sicost/internal/core"
)

// Log frame format. Every frame is
//
//	[u32 payloadLen][u32 crc32c(payload)][payload]
//
// with all integers little-endian and the checksum CRC32-Castagnoli.
// payload[0] is the frame type; the rest is the type-specific body. A
// frame whose header overruns the log, whose checksum mismatches, or
// whose body fails to decode marks the torn tail: recovery keeps the
// valid prefix and discards everything from that offset on.
//
// Type 2 is reserved: it was the legacy full-image checkpoint frame,
// written as the first frame of a log truncated by a stop-the-world
// checkpoint. Checkpoints are now chain links only, so no build writes
// it; a checksummed type-2 frame decodes to ErrLegacyCheckpoint, which
// recovery reports instead of truncating the whole log as torn.
const (
	frameHeaderSize = 8

	frameCommit           = 1
	frameLegacyCheckpoint = 2
	frameSchema           = 3
	frameDeltaBegin       = 4
	frameDeltaRows        = 5
	frameDeltaEnd         = 6
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrLegacyCheckpoint reports a legacy full-image checkpoint frame
// (type 2): the log predates chain-only checkpoints, and this build
// cannot fold it. Recovery fails with it and writes nothing.
var ErrLegacyCheckpoint = errors.New("wal: legacy full-image checkpoint frame (type 2): the log predates chain-only checkpoints")

// RowImage is the after-image of one row written by a committed
// transaction. Rec == nil encodes a tombstone (the commit deleted the
// row).
type RowImage struct {
	Table string
	Key   core.Value
	Rec   core.Record
}

// CommitFrame is the redo record of one committed transaction: its id,
// its commit sequence number, and the after-image of every row it
// wrote. Replaying commit frames in CSN order reproduces the committed
// state.
type CommitFrame struct {
	TxID uint64
	CSN  uint64
	Rows []RowImage
}

// CheckpointRow is one live row in a checkpoint snapshot, with the CSN
// of its newest committed version so recovery restores versions — not
// just values — exactly.
type CheckpointRow struct {
	Key core.Value
	CSN uint64
	Rec core.Record
}

// CheckpointTable is one table's schema plus its full live-row snapshot.
type CheckpointTable struct {
	Schema core.Schema
	Rows   []CheckpointRow
}

// Checkpoint is a point-in-time-consistent snapshot of the database at
// CSN: every commit with csn <= CSN is included, none after. Recovery
// produces it by folding the checkpoint chain; it embeds all schemas,
// so a chain rooted at a full link is self-contained.
type Checkpoint struct {
	CSN    uint64
	Tables []CheckpointTable
}

// DeltaBegin opens one link of a fuzzy checkpoint chain. CSN is the
// cut: the link's row images cover every key dirtied by commits in
// (Base, CSN]. Base is the cut of the previous chain link this delta
// builds on; Base == 0 marks a *full* link (the chain root: every live
// key is streamed, so no older log bytes are needed to fold it). The
// begin marker embeds all table schemas as of the cut, making a chain
// rooted at a full link self-contained.
type DeltaBegin struct {
	CSN     uint64
	Base    uint64
	Schemas []core.Schema
}

// DeltaRow is one dirty-key after-image as of the link's cut: the
// newest committed version with csn <= cut. Rec == nil encodes a
// tombstone — the key was deleted (or never live) at the cut, and the
// fold removes it.
type DeltaRow struct {
	Table string
	Key   core.Value
	CSN   uint64
	Rec   core.Record
}

// DeltaRows is one batch of a link's row images, appended between the
// link's begin and end markers. CSN binds the batch to its link;
// batches whose CSN does not match the open link are ignored by
// classification. Commit frames interleave freely with these batches —
// that is the point of the fuzzy checkpoint.
type DeltaRows struct {
	CSN  uint64
	Rows []DeltaRow
}

// DeltaEnd seals a link. A link is complete — and only then counts for
// the recovery fold — when its end marker is inside the valid prefix
// and Rows matches the total DeltaRow entries streamed since the begin
// marker. A torn or missing end marker discards the whole link:
// recovery falls back to the previous complete chain state.
type DeltaEnd struct {
	CSN  uint64
	Rows uint64
}

// Frame is one decoded log frame; exactly one field is non-nil.
type Frame struct {
	Commit     *CommitFrame
	Schema     *core.Schema
	DeltaBegin *DeltaBegin
	DeltaRows  *DeltaRows
	DeltaEnd   *DeltaEnd
}

// --- encoding -------------------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v core.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case core.KindInt:
		b = appendU64(b, uint64(v.I))
	case core.KindString:
		b = appendStr(b, v.S)
	}
	return b
}

func appendRecord(b []byte, r core.Record) []byte {
	b = appendU32(b, uint32(len(r)))
	for _, v := range r {
		b = appendValue(b, v)
	}
	return b
}

func appendSchema(b []byte, s *core.Schema) []byte {
	b = appendStr(b, s.Name)
	b = appendU32(b, uint32(len(s.Columns)))
	for _, c := range s.Columns {
		b = appendStr(b, c.Name)
		b = append(b, byte(c.Kind))
		if c.NotNull {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = appendU32(b, uint32(s.PK))
	b = appendU32(b, uint32(len(s.Unique)))
	for _, u := range s.Unique {
		b = appendU32(b, uint32(u))
	}
	return b
}

// frame wraps a payload in the length+CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, 0, frameHeaderSize+len(payload))
	out = appendU32(out, uint32(len(payload)))
	out = appendU32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// EncodeCommit renders a commit frame, header included.
func EncodeCommit(c *CommitFrame) []byte {
	p := []byte{frameCommit}
	p = appendU64(p, c.TxID)
	p = appendU64(p, c.CSN)
	p = appendU32(p, uint32(len(c.Rows)))
	for _, r := range c.Rows {
		p = appendStr(p, r.Table)
		p = appendValue(p, r.Key)
		if r.Rec == nil {
			p = append(p, 0)
		} else {
			p = append(p, 1)
			p = appendRecord(p, r.Rec)
		}
	}
	return frame(p)
}

// EncodeSchema renders a schema (DDL) frame, header included.
func EncodeSchema(s *core.Schema) []byte {
	p := []byte{frameSchema}
	p = appendSchema(p, s)
	return frame(p)
}

// EncodeDeltaBegin renders a chain-link begin marker, header included.
func EncodeDeltaBegin(d *DeltaBegin) []byte {
	p := []byte{frameDeltaBegin}
	p = appendU64(p, d.CSN)
	p = appendU64(p, d.Base)
	p = appendU32(p, uint32(len(d.Schemas)))
	for i := range d.Schemas {
		p = appendSchema(p, &d.Schemas[i])
	}
	return frame(p)
}

// EncodeDeltaRows renders one batch of link row images, header included.
func EncodeDeltaRows(d *DeltaRows) []byte {
	p := []byte{frameDeltaRows}
	p = appendU64(p, d.CSN)
	p = appendU32(p, uint32(len(d.Rows)))
	for _, r := range d.Rows {
		p = appendStr(p, r.Table)
		p = appendValue(p, r.Key)
		p = appendU64(p, r.CSN)
		if r.Rec == nil {
			p = append(p, 0)
		} else {
			p = append(p, 1)
			p = appendRecord(p, r.Rec)
		}
	}
	return frame(p)
}

// EncodeDeltaEnd renders a chain-link end marker, header included.
func EncodeDeltaEnd(d *DeltaEnd) []byte {
	p := []byte{frameDeltaEnd}
	p = appendU64(p, d.CSN)
	p = appendU64(p, d.Rows)
	return frame(p)
}

// --- decoding -------------------------------------------------------------

// reader is a bounds-checked cursor over a payload. Every method
// returns an error instead of panicking, so arbitrarily corrupted
// bytes (the walfuzz target) can never take the decoder down. It
// never pre-allocates by claimed counts — each loop iteration consumes
// at least one byte, so corrupt counts fail at end-of-payload instead
// of exhausting memory.
type reader struct {
	b   []byte
	off int
}

var errShortFrame = fmt.Errorf("wal: truncated frame body")

func (r *reader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errShortFrame
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, errShortFrame
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, errShortFrame
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if uint64(r.off)+uint64(n) > uint64(len(r.b)) {
		return "", errShortFrame
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) value() (core.Value, error) {
	k, err := r.u8()
	if err != nil {
		return core.Value{}, err
	}
	switch core.Kind(k) {
	case core.KindNull:
		return core.Null(), nil
	case core.KindInt:
		i, err := r.u64()
		if err != nil {
			return core.Value{}, err
		}
		return core.Int(int64(i)), nil
	case core.KindString:
		s, err := r.str()
		if err != nil {
			return core.Value{}, err
		}
		return core.Str(s), nil
	default:
		return core.Value{}, fmt.Errorf("wal: unknown value kind %d", k)
	}
}

func (r *reader) record() (core.Record, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	var rec core.Record
	for i := uint32(0); i < n; i++ {
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		rec = append(rec, v)
	}
	return rec, nil
}

func (r *reader) schema() (core.Schema, error) {
	var s core.Schema
	var err error
	if s.Name, err = r.str(); err != nil {
		return s, err
	}
	ncols, err := r.u32()
	if err != nil {
		return s, err
	}
	for i := uint32(0); i < ncols; i++ {
		var c core.Column
		if c.Name, err = r.str(); err != nil {
			return s, err
		}
		k, err := r.u8()
		if err != nil {
			return s, err
		}
		c.Kind = core.Kind(k)
		nn, err := r.u8()
		if err != nil {
			return s, err
		}
		c.NotNull = nn != 0
		s.Columns = append(s.Columns, c)
	}
	pk, err := r.u32()
	if err != nil {
		return s, err
	}
	s.PK = int(pk)
	nuniq, err := r.u32()
	if err != nil {
		return s, err
	}
	for i := uint32(0); i < nuniq; i++ {
		u, err := r.u32()
		if err != nil {
			return s, err
		}
		s.Unique = append(s.Unique, int(u))
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

func (r *reader) commitFrame() (*CommitFrame, error) {
	c := &CommitFrame{}
	var err error
	if c.TxID, err = r.u64(); err != nil {
		return nil, err
	}
	if c.CSN, err = r.u64(); err != nil {
		return nil, err
	}
	if c.CSN == 0 {
		// The engine never allocates CSN 0; a frame claiming it is
		// corrupt even when its checksum holds.
		return nil, fmt.Errorf("wal: commit frame with CSN 0")
	}
	nrows, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nrows; i++ {
		var row RowImage
		if row.Table, err = r.str(); err != nil {
			return nil, err
		}
		if row.Key, err = r.value(); err != nil {
			return nil, err
		}
		live, err := r.u8()
		if err != nil {
			return nil, err
		}
		if live != 0 {
			if row.Rec, err = r.record(); err != nil {
				return nil, err
			}
			if row.Rec == nil {
				row.Rec = core.Record{}
			}
		}
		c.Rows = append(c.Rows, row)
	}
	return c, nil
}

func (r *reader) deltaBeginFrame() (*DeltaBegin, error) {
	d := &DeltaBegin{}
	var err error
	if d.CSN, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Base, err = r.u64(); err != nil {
		return nil, err
	}
	if d.CSN == 0 || d.Base >= d.CSN {
		// The cut is a published CSN (never 0) and a link must advance
		// the chain; a marker violating either is corrupt.
		return nil, fmt.Errorf("wal: delta begin with cut %d, base %d", d.CSN, d.Base)
	}
	nschemas, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nschemas; i++ {
		s, err := r.schema()
		if err != nil {
			return nil, err
		}
		d.Schemas = append(d.Schemas, s)
	}
	return d, nil
}

func (r *reader) deltaRowsFrame() (*DeltaRows, error) {
	d := &DeltaRows{}
	var err error
	if d.CSN, err = r.u64(); err != nil {
		return nil, err
	}
	nrows, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nrows; i++ {
		var row DeltaRow
		if row.Table, err = r.str(); err != nil {
			return nil, err
		}
		if row.Key, err = r.value(); err != nil {
			return nil, err
		}
		if row.CSN, err = r.u64(); err != nil {
			return nil, err
		}
		live, err := r.u8()
		if err != nil {
			return nil, err
		}
		if live != 0 {
			if row.Rec, err = r.record(); err != nil {
				return nil, err
			}
			if row.Rec == nil {
				row.Rec = core.Record{}
			}
		}
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

func (r *reader) deltaEndFrame() (*DeltaEnd, error) {
	d := &DeltaEnd{}
	var err error
	if d.CSN, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Rows, err = r.u64(); err != nil {
		return nil, err
	}
	if d.CSN == 0 {
		return nil, fmt.Errorf("wal: delta end with CSN 0")
	}
	return d, nil
}

// DecodeFrameAt decodes the frame starting at byte offset off. It
// returns the frame, the total encoded length (header included), and
// an error when the bytes at off do not form a complete, checksummed,
// well-formed frame — the torn-tail condition.
func DecodeFrameAt(b []byte, off int) (Frame, int, error) {
	if off < 0 || off+frameHeaderSize > len(b) {
		return Frame{}, 0, errShortFrame
	}
	plen := binary.LittleEndian.Uint32(b[off:])
	sum := binary.LittleEndian.Uint32(b[off+4:])
	end := uint64(off) + frameHeaderSize + uint64(plen)
	if end > uint64(len(b)) {
		return Frame{}, 0, errShortFrame
	}
	payload := b[off+frameHeaderSize : end]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: checksum mismatch", off)
	}
	if len(payload) == 0 {
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: empty payload", off)
	}
	r := &reader{b: payload, off: 1}
	var f Frame
	var err error
	switch payload[0] {
	case frameCommit:
		f.Commit, err = r.commitFrame()
	case frameLegacyCheckpoint:
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: %w", off, ErrLegacyCheckpoint)
	case frameSchema:
		var s core.Schema
		s, err = r.schema()
		if err == nil {
			f.Schema = &s
		}
	case frameDeltaBegin:
		f.DeltaBegin, err = r.deltaBeginFrame()
	case frameDeltaRows:
		f.DeltaRows, err = r.deltaRowsFrame()
	case frameDeltaEnd:
		f.DeltaEnd, err = r.deltaEndFrame()
	default:
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: unknown type %d", off, payload[0])
	}
	if err != nil {
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: %w", off, err)
	}
	if r.off != len(payload) {
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: %d trailing bytes in payload", off, len(payload)-r.off)
	}
	return f, frameHeaderSize + int(plen), nil
}

// ScanLog walks the log from the start, decoding frames until the
// bytes stop parsing. It returns the decoded frames and validLen, the
// offset just past the last valid frame: the torn-tail rule keeps
// [0, validLen) and discards the rest. A fully valid log has
// validLen == len(b).
func ScanLog(b []byte) (frames []Frame, validLen int) {
	off := 0
	for off < len(b) {
		f, n, err := DecodeFrameAt(b, off)
		if err != nil {
			break
		}
		frames = append(frames, f)
		off += n
	}
	return frames, off
}
