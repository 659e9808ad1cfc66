package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sicost/internal/core"
)

func commitFrameBytes(csn uint64, rows ...RowImage) []byte {
	return EncodeCommit(&CommitFrame{TxID: csn + 1000, CSN: csn, Rows: rows})
}

func TestClassifyCheckpointAndRedo(t *testing.T) {
	var log []byte
	log = append(log, deltaLink(0, 5, []core.Schema{testSchema()}, []DeltaRow{
		{Table: "T", Key: core.Int(1), CSN: 4, Rec: core.Record{core.Int(1), core.Str("a")}},
	})...)
	log = append(log, commitFrameBytes(7)...)
	log = append(log, commitFrameBytes(6)...)
	log = append(log, commitFrameBytes(3)...) // a commit the chain already covers

	info := Classify(log)
	if info.Checkpoint == nil || info.Checkpoint.CSN != 5 {
		t.Fatalf("checkpoint: %+v", info.Checkpoint)
	}
	if len(info.Commits) != 2 || info.Commits[0].CSN != 6 || info.Commits[1].CSN != 7 {
		t.Fatalf("redo commits not CSN-sorted past the cut: %+v", info.Commits)
	}
	if info.HighCSN != 7 {
		t.Fatalf("HighCSN = %d, want 7", info.HighCSN)
	}
	if info.TornBytes != 0 || info.ValidBytes != len(log) || info.Frames != 6 {
		t.Fatalf("scan accounting: %+v", info)
	}
	if len(info.Schemas) != 1 || info.Schemas[0].Name != "T" {
		t.Fatalf("link-embedded schema not extracted: %+v", info.Schemas)
	}
}

func TestClassifyLastCheckpointWins(t *testing.T) {
	var log []byte
	log = append(log, deltaLink(0, 3, nil)...)
	log = append(log, commitFrameBytes(4)...)
	log = append(log, deltaLink(0, 8, nil)...)
	log = append(log, commitFrameBytes(9)...)

	info := Classify(log)
	if info.Checkpoint.CSN != 8 || info.ChainLinks != 1 {
		t.Fatalf("checkpoint CSN = %d (%d links), want the later root (8, 1 link)", info.Checkpoint.CSN, info.ChainLinks)
	}
	if len(info.Commits) != 1 || info.Commits[0].CSN != 9 {
		t.Fatalf("commits = %+v, want only CSN 9", info.Commits)
	}
}

// TestRecoverRejectsLegacyCheckpointLog pins the upgrade guard: a log
// written by the stop-the-world checkpointer of older builds starts
// with a type-2 frame. The torn-tail rule would truncate the whole log
// to an empty database; Recover must fail with ErrLegacyCheckpoint
// instead and leave every byte in place.
func TestRecoverRejectsLegacyCheckpointLog(t *testing.T) {
	img := append(legacyCheckpointFrame(), commitFrameBytes(6)...)
	l, err := NewMemSegmentLogFrom([]SegmentData{{Index: 3, Data: img}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(l); !errors.Is(err, ErrLegacyCheckpoint) {
		t.Fatalf("Recover = %v, want ErrLegacyCheckpoint", err)
	}
	if got := logBytes(t, l); !bytes.Equal(got, img) {
		t.Fatalf("Recover rewrote the legacy log: %d bytes, want %d untouched", len(got), len(img))
	}
}

func TestClassifySchemaDedupLastWins(t *testing.T) {
	v1 := core.Schema{Name: "T", Columns: []core.Column{{Name: "a", Kind: core.KindInt, NotNull: true}}, PK: 0}
	v2 := v1
	v2.Columns = append([]core.Column{}, v1.Columns...)
	v2.Columns = append(v2.Columns, core.Column{Name: "b", Kind: core.KindString})
	var log []byte
	log = append(log, EncodeSchema(&v1)...)
	log = append(log, EncodeSchema(&v2)...)

	info := Classify(log)
	if len(info.Schemas) != 1 {
		t.Fatalf("schemas = %+v, want 1 deduplicated entry", info.Schemas)
	}
	if len(info.Schemas[0].Columns) != 2 {
		t.Fatalf("dedup kept the older definition: %+v", info.Schemas[0])
	}
}

func TestRecoverRepairsTornTail(t *testing.T) {
	clean := append(commitFrameBytes(1), commitFrameBytes(2)...)
	torn := append(append([]byte{}, clean...), 0xde, 0xad, 0xbe)
	dev, err := NewMemSegmentLogFrom([]SegmentData{{Data: torn}}, 0)
	if err != nil {
		t.Fatal(err)
	}

	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Repaired || info.TornBytes != 3 || info.ValidBytes != len(clean) {
		t.Fatalf("first recovery: %+v", info)
	}
	if info.HighCSN != 2 || len(info.Commits) != 2 {
		t.Fatalf("classification: HighCSN=%d commits=%d", info.HighCSN, len(info.Commits))
	}
	if dev.Size() != int64(len(clean)) {
		t.Fatalf("device not truncated to valid prefix: %d, want %d", dev.Size(), len(clean))
	}

	// Second recovery: clean log, identical classification.
	again, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if again.Repaired || again.TornBytes != 0 {
		t.Fatalf("second recovery repaired again: %+v", again)
	}
	if again.HighCSN != info.HighCSN || len(again.Commits) != len(info.Commits) {
		t.Fatalf("recovery not idempotent: %+v vs %+v", again, info)
	}
}

// history is a randomly generated commit log: quick.Check drives the
// recovery-idempotence property over it.
type history struct {
	commits []*CommitFrame
	junk    []byte
}

// Generate implements quick.Generator: a random run of commit frames
// with strictly ascending CSNs and random row images, followed by a
// random (possibly torn) tail.
func (history) Generate(r *rand.Rand, size int) reflect.Value {
	h := history{}
	csn := uint64(0)
	for i, n := 0, r.Intn(8); i < n; i++ {
		csn += 1 + uint64(r.Intn(3))
		c := &CommitFrame{TxID: uint64(r.Intn(100) + 1), CSN: csn}
		for j, m := 0, r.Intn(4); j < m; j++ {
			row := RowImage{Table: "t", Key: core.Int(int64(r.Intn(10)))}
			if r.Intn(4) > 0 {
				row.Rec = core.Record{core.Int(int64(r.Intn(10))), core.Int(r.Int63n(1000))}
			}
			c.Rows = append(c.Rows, row)
		}
		h.commits = append(h.commits, c)
	}
	h.junk = make([]byte, r.Intn(24))
	r.Read(h.junk)
	return reflect.ValueOf(h)
}

// TestRecoveryIdempotenceQuick is the property behind engine.Recover's
// idempotence promise, checked at the log layer over random commit
// histories: recovering a device (repairing its torn tail) and then
// recovering it again — or recovering the already-repaired image —
// classifies to the same redo plan, and every acknowledged commit (all
// frames before the junk tail) survives both passes.
func TestRecoveryIdempotenceQuick(t *testing.T) {
	prop := func(h history) bool {
		var log []byte
		for _, c := range h.commits {
			log = append(log, EncodeCommit(c)...)
		}
		clean := len(log)
		log = append(log, h.junk...)

		dev, err := NewMemSegmentLogFrom([]SegmentData{{Data: log}}, 0)
		if err != nil {
			return false
		}
		first, err := Recover(dev)
		if err != nil {
			return false
		}
		second, err := Recover(dev)
		if err != nil {
			return false
		}
		// Every acked commit survives; the junk tail (which might itself
		// start with bytes that happen to parse) never removes one.
		if len(first.Commits) < len(h.commits) || first.ValidBytes < clean {
			return false
		}
		for i, c := range h.commits {
			if first.Commits[i].CSN != c.CSN || len(first.Commits[i].Rows) != len(c.Rows) {
				return false
			}
		}
		// Idempotence: the repaired log classifies identically.
		return second.TornBytes == 0 &&
			second.HighCSN == first.HighCSN &&
			len(second.Commits) == len(first.Commits) &&
			second.ValidBytes == first.ValidBytes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
