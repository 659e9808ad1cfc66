package onlinecheck_test

import (
	"testing"

	"sicost/internal/core"
	"sicost/internal/onlinecheck"
	"sicost/internal/trace"
)

// decodeStream turns fuzz bytes into an arbitrary event stream: four
// bytes per event choose kind (including out-of-schema values), tx id
// (including the invalid 0), item and CSN. Reorderings, truncations,
// duplications and garbage all arise naturally from the byte space.
func decodeStream(data []byte) []trace.Event {
	keys := []string{"a", "b", "c", "d"}
	var evs []trace.Event
	for i := 0; i+3 < len(data) && len(evs) < 4096; i += 4 {
		evs = append(evs, trace.Event{
			TS:    int64(i + 1),
			Kind:  trace.Kind(data[i] % 20), // every real kind + garbage
			Tx:    uint64(data[i+1] % 8),
			Table: "H",
			Key:   core.Str(keys[data[i+2]%4]),
			CSN:   uint64(data[i+3] % 16),
		})
	}
	return evs
}

// sequentialStream builds a validator-accepted, trivially serializable
// stream from fuzz bytes: n transactions, each reading the previous
// version of one item and writing the next, strictly one at a time.
func sequentialStream(data []byte) []trace.Event {
	keys := []string{"a", "b", "c", "d"}
	n := 2 + int(byteAt(data, 0)%14)
	lastVer := map[string]uint64{}
	var evs []trace.Event
	ts := int64(0)
	stamp := func(e trace.Event) {
		ts++
		e.TS = ts
		evs = append(evs, e)
	}
	for i := 1; i <= n; i++ {
		tx := uint64(i)
		k := keys[byteAt(data, i)%4]
		start := uint64(i - 1)
		stamp(trace.Event{Kind: trace.EvBegin, Tx: tx, CSN: start})
		if v, ok := lastVer[k]; ok {
			stamp(trace.Event{Kind: trace.EvReadVer, Tx: tx, Table: "H", Key: core.Str(k), CSN: v})
		}
		stamp(trace.Event{Kind: trace.EvWriteVer, Tx: tx, Table: "H", Key: core.Str(k), CSN: uint64(i)})
		stamp(trace.Event{Kind: trace.EvCommit, Tx: tx, CSN: uint64(i)})
		lastVer[k] = uint64(i)
	}
	return evs
}

func byteAt(data []byte, i int) byte {
	if len(data) == 0 {
		return 0
	}
	return data[i%len(data)]
}

// FuzzOnlineCheck drives the checker with arbitrary event streams and
// with mutated valid streams. Contract under fuzz:
//
//   - never panic, whatever the bytes decode to;
//   - fully deterministic: the same stream yields the identical report;
//   - bounded: the committed window never exceeds the commit count and
//     pending state never exceeds the transaction-id space;
//   - never a false positive: a validator-accepted serializable stream,
//     and every truncation of it, comes back clean.
func FuzzOnlineCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	// A begin/read/write/commit quartet for one tx.
	f.Add([]byte{0, 1, 0, 3, 14, 1, 0, 2, 15, 1, 0, 5, 9, 1, 0, 5})
	// Unknown kinds and tx 0.
	f.Add([]byte{19, 0, 1, 1, 18, 3, 2, 9, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Leg 1: arbitrary stream — no panic, deterministic, bounded.
		evs := decodeStream(data)
		cfg := onlinecheck.Config{SIRules: true, Batch: 7}
		a := onlinecheck.Run(evs, cfg)
		b := onlinecheck.Run(evs, cfg)
		if a.Describe() != b.Describe() || a.Stats != b.Stats {
			t.Fatalf("nondeterministic report on identical stream:\n%s\nvs\n%s", a.Describe(), b.Describe())
		}
		if a.Stats.Window > int(a.Stats.Commits) {
			t.Fatalf("window %d exceeds commit count %d", a.Stats.Window, a.Stats.Commits)
		}
		if a.Stats.Pending > 8 {
			t.Fatalf("pending %d exceeds the 8-wide tx-id space", a.Stats.Pending)
		}

		// Leg 2: a valid sequential stream must be accepted by the
		// strict validator and come back clean — and stay clean under
		// every truncation (fewer events can only shrink the graph).
		valid := sequentialStream(data)
		if err := trace.Validate(valid); err != nil {
			t.Fatalf("generator produced an invalid stream: %v", err)
		}
		rep := onlinecheck.Run(valid, cfg)
		if !rep.Serializable || rep.SIViolations != 0 {
			t.Fatalf("false positive on a valid sequential stream:\n%s", rep.Describe())
		}
		cut := int(byteAt(data, 1)) % (len(valid) + 1)
		trunc := onlinecheck.Run(valid[:cut], cfg)
		if !trunc.Serializable || trunc.SIViolations != 0 {
			t.Fatalf("false positive on a truncated valid stream (cut=%d):\n%s", cut, trunc.Describe())
		}

		// Leg 3: a duplicated tail (events for already-terminated
		// transactions) must not panic and must stay deterministic.
		dup := append(append([]trace.Event(nil), valid...), valid[cut:]...)
		d1 := onlinecheck.Run(dup, cfg)
		d2 := onlinecheck.Run(dup, cfg)
		if d1.Describe() != d2.Describe() {
			t.Fatal("nondeterministic report on duplicated stream")
		}
	})
}
