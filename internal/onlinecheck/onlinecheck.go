// Package onlinecheck is the windowed online isolation checker: it
// consumes the transaction-lifecycle event stream (internal/trace) as
// it is emitted and verifies, continuously, that the execution obeys
// snapshot isolation's read/write rules and stays serializable. It is
// the repository's one serializability verdict: live runs subscribe it
// to the recorder's rings, scripted runs replay a drained stream
// through Run, and internal/detsim cross-validates it against an
// independent brute-force oracle.
//
// The algorithm is timestamp-driven, after the incremental checkers of
// "Online Timestamp-based Transactional Isolation Checking" and
// "Efficient Black-box Checking of Snapshot Isolation" (see PAPERS.md):
//
//   - Per-transaction state (begin/snapshot CSN from EvBegin, the exact
//     read set from EvReadVer, the committed write set from EvWriteVer)
//     is buffered until the transaction's terminal event. Aborted
//     transactions are discarded — they contribute no dependencies.
//   - On EvCommit the transaction is integrated into a sliding window
//     of committed transactions. Per-item indexes (the committed
//     version list ordered by CSN, and the committed readers with
//     their read-version CSNs) localize dependency derivation: WR, WW
//     and RW edges are found by binary search in timestamp order, not
//     by all-pairs comparison.
//   - Every new edge is incident on the committing transaction, so one
//     bounded depth-first search from it decides whether the commit
//     closed a dependency cycle. A cycle is reported live as a
//     structured Violation: the participating transactions, the edge
//     chain, and the window bounds at detection.
//   - Snapshot-isolation rule violations (a read newer than the
//     snapshot, a read made stale by a version the snapshot should
//     have seen, two concurrent committed writers of one item — the
//     lost-update/First-Updater-Wins contract) are checked from the
//     same indexes when Config.SIRules is on.
//
// Memory is O(window), not O(history): a committed transaction is
// retired once no transaction that could still form an edge to it can
// exist. The watermark below which retirement is safe is
// min(floorPrev, earliest snapshot of any in-flight transaction),
// where floorPrev — the highest published CSN delivered up to the
// previous drain pass — bounds the snapshot of any transaction the
// checker has not seen yet (an EvBegin that missed pass P was pushed
// after pass P-1's events were published, so its snapshot includes
// them). Retired state is pruned from every index; a per-item
// high-water mark of pruned versions keeps the stale-read rule sound
// across pruning. The window consequently spans the oldest in-flight
// snapshot — one long-running (or lock-parked) transaction stretches
// it, exactly as a long-running transaction stretches a real MVCC
// system's version horizon.
//
// The checker never blocks the engine (it reads from the trace
// recorder's rings via trace.Subscribe), never panics on malformed
// streams (fuzzed in FuzzOnlineCheck), and degrades only toward false
// negatives on gappy or adversarial input: verdicts it does report are
// backed by edges actually present in the stream.
package onlinecheck

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"

	"sicost/internal/core"
	"sicost/internal/trace"
)

// DefaultMaxViolations bounds how many structured violation reports are
// retained (counters keep counting past it).
const DefaultMaxViolations = 16

// DefaultBatch is the window-discipline stride: how many events Ingest
// processes before advancing the retirement watermark and pruning, in
// addition to every delivered pass boundary. Chosen so the window stays
// O(concurrent transactions) even when a starved subscription pump
// delivers tens of thousands of events in one pass (on a saturated
// box the drain ticker can lag far behind the clients).
const DefaultBatch = 512

// DepKind labels a dependency edge of the multi-version serialization
// graph (MVSG).
type DepKind uint8

// MVSG edge kinds.
const (
	WR DepKind = iota // T wrote the version U read
	WW                // T's version precedes U's version of the same item
	RW                // U read a version older than T's (antidependency)
)

// String names the kind.
func (k DepKind) String() string {
	switch k {
	case WR:
		return "wr"
	case WW:
		return "ww"
	default:
		return "rw"
	}
}

// Dep is one MVSG edge with its provenance.
type Dep struct {
	From, To uint64
	Kind     DepKind
	Table    string
	Key      core.Value
}

// classifyCycle names the anomaly shape of a witness cycle through n
// distinct transactions with rw antidependency steps: "write skew" is
// two transactions joined by two rw antidependencies; "read-only
// anomaly" is a cycle through a transaction that performed no writes
// (Fekete/O'Neil/O'Neil 2004); other shapes are "non-serializable
// execution".
func classifyCycle(n, rw int, readOnly bool) string {
	switch {
	case n == 2 && rw == 2:
		return "write skew"
	case readOnly && rw >= 2:
		return "read-only anomaly"
	default:
		return "non-serializable execution"
	}
}

// Config parameterizes a Checker.
type Config struct {
	// SIRules enables the snapshot-isolation read/write rule checks
	// (future reads, stale reads, concurrent committed writers). Leave
	// it off for Strict2PL executions, where reads legitimately see
	// versions newer than the transaction's begin point; cycle checking
	// runs regardless.
	SIRules bool
	// MaxViolations bounds retained Violation records (0 means
	// DefaultMaxViolations). Counters are exact beyond the bound.
	MaxViolations int
	// Batch is the window-discipline stride (0 means DefaultBatch):
	// Ingest retires after every Batch events as well as at every pass
	// boundary, and Run additionally chunks offline replays into
	// Batch-sized passes. A stride larger than the stream replays it in
	// one pass (the exactness mode the cross-validation suite uses).
	Batch int
}

// ViolationKind labels what rule a Violation breaks.
type ViolationKind uint8

// Violation kinds.
const (
	// Cycle: the committed history's dependency graph has a cycle — the
	// execution is not serializable.
	Cycle ViolationKind = iota
	// LostUpdate: two concurrent transactions both committed a write to
	// the same item, which SI's First-Updater-Wins rule forbids.
	LostUpdate
	// StaleRead: a transaction read a version older than one its
	// snapshot contains.
	StaleRead
	// FutureRead: a transaction read a version newer than its snapshot.
	FutureRead
)

// String names the kind.
func (k ViolationKind) String() string {
	switch k {
	case Cycle:
		return "cycle"
	case LostUpdate:
		return "lost-update"
	case StaleRead:
		return "stale-read"
	default:
		return "future-read"
	}
}

// WindowBounds snapshots the sliding window at detection time.
type WindowBounds struct {
	// Size is the number of committed transactions in the window.
	Size int
	// OldestCSN/NewestCSN are the lowest and highest commit CSNs held.
	OldestCSN, NewestCSN uint64
	// Watermark is the retirement watermark in force.
	Watermark uint64
}

// Violation is one detected isolation violation.
type Violation struct {
	Kind ViolationKind
	// Anomaly names the shape of a Cycle (classifyCycle).
	Anomaly string
	// Txs are the participating transaction ids; for cycles, the cycle
	// order with the first id repeated last.
	Txs []uint64
	// Tags are the application tags (engine Tx.SetTag, carried on
	// EvCommit) of the cycle's transactions, aligned with Txs.
	Tags []string
	// Edges is the dependency chain of a Cycle (one edge per step).
	Edges []Dep
	// Table/Key name the item of an SI-rule violation.
	Table string
	Key   core.Value
	// CSN is the offending version (LostUpdate) or read version
	// (StaleRead/FutureRead).
	CSN uint64
	// Window is the window state when the violation was detected.
	Window WindowBounds
}

// String renders the violation on one line (cycles: the edge chain).
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", v.Kind)
	if v.Kind == Cycle {
		fmt.Fprintf(&b, " (%s):", v.Anomaly)
		for i, d := range v.Edges {
			fmt.Fprintf(&b, " %s --%s[%s.%v]-->", v.node(i), d.Kind, d.Table, d.Key)
		}
		if n := len(v.Txs); n > 0 {
			fmt.Fprintf(&b, " %s", v.node(n-1))
		}
	} else {
		fmt.Fprintf(&b, ": tx")
		for _, id := range v.Txs {
			fmt.Fprintf(&b, " t%d", id)
		}
		fmt.Fprintf(&b, " on %s.%v (csn %d)", v.Table, v.Key, v.CSN)
	}
	fmt.Fprintf(&b, " [window %d, csn %d..%d, watermark %d]",
		v.Window.Size, v.Window.OldestCSN, v.Window.NewestCSN, v.Window.Watermark)
	return b.String()
}

// node renders the i-th cycle participant as t<id>, or t<id>(<tag>)
// when the transaction carried an application tag.
func (v Violation) node(i int) string {
	if i < len(v.Tags) && v.Tags[i] != "" {
		return fmt.Sprintf("t%d(%s)", v.Txs[i], v.Tags[i])
	}
	return fmt.Sprintf("t%d", v.Txs[i])
}

// Stats are the checker's live counters — the expvar surface.
type Stats struct {
	// Events is the total events ingested; UnknownKind counts events
	// outside the schema, Ignored counts events dropped as inconsistent
	// (duplicate terminals, traffic after a terminal, version-CSN
	// collisions).
	Events, UnknownKind, Ignored uint64
	// Begins/Commits/Aborts count transaction outcomes seen; GapTxs
	// counts transactions whose commit arrived without a begin (ring
	// overflow or a truncated stream) — SI rules are skipped for those.
	Begins, Commits, Aborts, GapTxs uint64
	// Edges is the number of dependency edges derived (deduplicated).
	Edges uint64
	// Pending/Window are the current in-flight and committed-window
	// populations; MaxPending/MaxWindow their high-water marks — the
	// bounded-memory claim made checkable.
	Pending, MaxPending int
	Window, MaxWindow   int
	// Retired counts transactions pruned from the window; Watermark is
	// the current retirement watermark.
	Retired   uint64
	Watermark uint64
	// Violations counts everything detected; SIViolations the SI-rule
	// subset and Cycles the non-serializable subset.
	Violations, SIViolations, Cycles int
}

// Report is the checker's verdict over everything ingested.
type Report struct {
	// Txns is the number of committed transactions integrated.
	Txns int
	// Serializable is false once any dependency cycle was detected.
	Serializable bool
	// SIViolations counts snapshot-isolation rule violations (lost
	// updates, stale reads, future reads).
	SIViolations int
	// Violations are the retained structured reports, detection order,
	// capped at Config.MaxViolations.
	Violations []Violation
	// Stats is the final counter snapshot.
	Stats Stats
	// Dropped is the number of events the feeding recorder discarded on
	// ring overflow (trace.Recorder.Dropped), set by the caller that
	// owns the recorder. A lost read-ver event can hide a cycle, so a
	// report with Dropped > 0 is no clean verdict: gates treat it as a
	// failed check (see OK).
	Dropped uint64
}

// OK reports whether the verdict is clean: serializable, no SI-rule
// violation, and no event lost on the way to the checker.
func (r *Report) OK() bool {
	return r.Serializable && r.SIViolations == 0 && r.Dropped == 0
}

// Anomaly names the execution: "serializable", or the classification
// of the first retained cycle ("write skew", "read-only anomaly", ...).
func (r *Report) Anomaly() string {
	if r.Serializable {
		return "serializable"
	}
	for _, v := range r.Violations {
		if v.Kind == Cycle {
			return v.Anomaly
		}
	}
	return "non-serializable execution"
}

// Describe renders the report for humans, deterministically.
func (r *Report) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "online-checked %d transactions, %d edges, window peak %d (%d retired): ",
		r.Txns, r.Stats.Edges, r.Stats.MaxWindow, r.Stats.Retired)
	switch {
	case r.Serializable && r.SIViolations == 0:
		b.WriteString("serializable, SI rules hold\n")
	case r.Serializable:
		fmt.Fprintf(&b, "serializable, %d SI-rule violation(s)\n", r.SIViolations)
	default:
		fmt.Fprintf(&b, "NOT serializable (%d cycle(s), %d SI-rule violation(s))\n",
			r.Stats.Cycles, r.SIViolations)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "  INCOMPLETE: %d event(s) dropped on ring overflow; the verdict may miss cycles\n", r.Dropped)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// itemKey names one row.
type itemKey struct {
	table string
	key   core.Value
}

// version is one committed version of an item.
type version struct {
	csn uint64
	tx  uint64
}

// readerRec is one committed read of an item.
type readerRec struct {
	csn uint64 // version CSN the reader saw
	tx  uint64
}

// itemState holds the per-item indexes.
type itemState struct {
	versions []version   // ascending by csn
	readers  []readerRec // committed readers, unordered
	// prunedMax is the newest version CSN retired from this item; it
	// keeps the stale-read rule sound after pruning.
	prunedMax uint64
}

// ref is one read or write of a transaction.
type ref struct {
	item itemKey
	csn  uint64
}

// pendingTx buffers a transaction between its first event and its
// terminal.
type pendingTx struct {
	id    uint64
	start uint64
	begun bool // EvBegin/EvSnapshot seen: start is trustworthy
	// effStart substitutes for start in the watermark when begun is
	// false: the floor in force when the transaction was first seen (a
	// conservative snapshot lower bound for gap transactions).
	effStart uint64
	done     bool // terminal seen; later events are Ignored
	reads    []ref
	writes   []ref
}

// edge is one out-edge of a window node.
type edge struct {
	to   uint64
	kind DepKind
	item itemKey
}

// txNode is one committed transaction in the window.
type txNode struct {
	id            uint64
	start, commit uint64
	begun         bool
	writer        bool
	tag           string // application tag from EvCommit
	out           []edge // insertion-ordered: deterministic DFS
	outSeen       map[uint64]uint8
	reads         []ref
	writes        []ref
}

// csnHeap orders window members by commit CSN for retirement.
type csnHeap []*txNode

func (h csnHeap) Len() int            { return len(h) }
func (h csnHeap) Less(i, j int) bool  { return h[i].commit < h[j].commit }
func (h csnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *csnHeap) Push(x interface{}) { *h = append(*h, x.(*txNode)) }
func (h *csnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Checker is the online windowed isolation checker. Feed it event
// batches with Ingest (each batch = one drain pass; trace.Subscribe
// delivers exactly that), read live counters with Stats, and collect
// the verdict with Finalize. Safe for concurrent use.
type Checker struct {
	cfg Config

	mu      sync.Mutex
	pending map[uint64]*pendingTx
	window  map[uint64]*txNode
	byCSN   csnHeap
	items   map[itemKey]*itemState

	// floorPrev is the highest published CSN delivered through the
	// previous batch — the snapshot lower bound for transactions not
	// yet seen. maxSeen tracks the current batch.
	floorPrev, maxSeen uint64
	watermark          uint64
	// sincePass counts events since the last window-discipline stride.
	sincePass int

	stats      Stats
	violations []Violation
	cycles     int
}

// New creates a Checker.
func New(cfg Config) *Checker {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	return &Checker{
		cfg:     cfg,
		pending: make(map[uint64]*pendingTx),
		window:  make(map[uint64]*txNode),
		items:   make(map[itemKey]*itemState),
	}
}

// Attach creates a Checker and subscribes it to rec's event stream.
// Close the subscription before calling Finalize, so the final drain
// pass is delivered.
func Attach(rec *trace.Recorder, cfg Config, opts trace.SubOptions) (*Checker, *trace.Subscription) {
	c := New(cfg)
	return c, trace.Subscribe(rec, c.Ingest, opts)
}

// Run replays a recorded stream through a fresh checker and returns the
// verdict — the replay entry point (cmd/tracecheck, the scripted runs
// of internal/detsim and the anomaly experiment, the cross-validation
// suite). The stream is chunked into cfg.Batch-sized passes so the
// window discipline applies. Run cannot see drops: a caller that
// drained a recorder sets Report.Dropped from it.
func Run(events []trace.Event, cfg Config) *Report {
	c := New(cfg)
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	for i := 0; i < len(events); i += cfg.Batch {
		end := i + cfg.Batch
		if end > len(events) {
			end = len(events)
		}
		c.Ingest(events[i:end])
	}
	return c.Finalize()
}

// Ingest processes one batch of events — one complete drain pass, in
// delivered order — advancing the retirement watermark and pruning the
// window every cfg.Batch events and at the pass boundary. The intra-
// pass strides keep the window bounded even when a starved pump thread
// delivers an enormous pass; a stride boundary is sound for the same
// reason a pass boundary is (the floor only counts CSNs published
// before events already delivered). It is the sink side of
// trace.Subscribe.
func (c *Checker) Ingest(events []trace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range events {
		c.ingestOne(&events[i])
		c.sincePass++
		if c.sincePass >= c.cfg.Batch {
			c.endPass()
			c.sincePass = 0
		}
	}
	c.endPass()
	c.sincePass = 0
}

// Stats returns a snapshot of the live counters (the expvar surface).
func (c *Checker) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Checker) snapshotLocked() Stats {
	s := c.stats
	s.Pending = len(c.pending)
	s.Window = len(c.window)
	s.Watermark = c.watermark
	s.Violations = c.stats.SIViolations + c.cycles
	s.Cycles = c.cycles
	return s
}

// Finalize returns the verdict over everything ingested so far. The
// checker remains usable; Finalize is a snapshot, not a reset.
func (c *Checker) Finalize() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.snapshotLocked()
	rep := &Report{
		Txns:         int(c.stats.Commits),
		Serializable: c.cycles == 0,
		SIViolations: c.stats.SIViolations,
		Violations:   append([]Violation(nil), c.violations...),
		Stats:        st,
	}
	return rep
}

// ingestOne dispatches one event.
func (c *Checker) ingestOne(ev *trace.Event) {
	c.stats.Events++
	if int(ev.Kind) >= int(trace.NumKinds()) {
		c.stats.UnknownKind++
		return
	}
	switch ev.Kind {
	case trace.EvBegin, trace.EvSnapshot:
		if ev.Tx == 0 || c.inWindow(ev.Tx) {
			c.stats.Ignored++
			return
		}
		p := c.pendingFor(ev.Tx)
		if p.done {
			c.stats.Ignored++
			return
		}
		if !p.begun {
			c.stats.Begins++
		}
		p.begun = true
		p.start = ev.CSN
		c.noteCSN(ev.CSN)
	case trace.EvReadVer:
		if ev.Tx == 0 || c.inWindow(ev.Tx) {
			c.stats.Ignored++
			return
		}
		p := c.pendingFor(ev.Tx)
		if p.done {
			c.stats.Ignored++
			return
		}
		p.reads = append(p.reads, ref{item: itemKey{ev.Table, ev.Key}, csn: ev.CSN})
	case trace.EvWriteVer:
		if ev.Tx == 0 || c.inWindow(ev.Tx) {
			c.stats.Ignored++
			return
		}
		p := c.pendingFor(ev.Tx)
		if p.done {
			c.stats.Ignored++
			return
		}
		p.writes = append(p.writes, ref{item: itemKey{ev.Table, ev.Key}, csn: ev.CSN})
	case trace.EvAbort:
		if ev.Tx == 0 {
			c.stats.Ignored++
			return
		}
		if p, ok := c.pending[ev.Tx]; ok && !p.done {
			p.done = true
			c.stats.Aborts++
			delete(c.pending, ev.Tx)
		} else if _, inWin := c.window[ev.Tx]; inWin {
			c.stats.Ignored++ // terminal after commit: malformed
		} else {
			c.stats.Aborts++ // abort of a never-seen tx: nothing buffered
		}
	case trace.EvCommit:
		if ev.Tx == 0 {
			c.stats.Ignored++
			return
		}
		if _, dup := c.window[ev.Tx]; dup {
			c.stats.Ignored++
			return
		}
		p, ok := c.pending[ev.Tx]
		if !ok {
			p = c.pendingFor(ev.Tx)
		}
		if p.done {
			c.stats.Ignored++
			return
		}
		delete(c.pending, ev.Tx)
		c.noteCSN(ev.CSN)
		c.commit(p, ev.CSN, ev.Table)
	default:
		// Statement-start, lock, conflict and device events carry no
		// dependency information the version events do not already
		// carry exactly.
	}
}

// inWindow reports whether tx already committed into the window —
// further lifecycle events for it (duplicates, malformed streams) are
// ignored rather than allowed to open a phantom pending record that
// would pin the retirement watermark.
func (c *Checker) inWindow(tx uint64) bool {
	_, ok := c.window[tx]
	return ok
}

// pendingFor returns (creating if needed) the pending record for tx.
// A record created by a non-begin event marks a gap transaction: its
// snapshot is unknown, so effStart conservatively takes the current
// floor and the SI rules are skipped for it.
func (c *Checker) pendingFor(tx uint64) *pendingTx {
	p := c.pending[tx]
	if p == nil {
		p = &pendingTx{id: tx, effStart: c.floorPrev}
		c.pending[tx] = p
		if n := len(c.pending); n > c.stats.MaxPending {
			c.stats.MaxPending = n
		}
	}
	return p
}

// noteCSN observes a published CSN (begin snapshots and commit CSNs are
// published before their events are emitted, so they are safe floor
// evidence; write-ver CSNs are emitted pre-publication and are not).
func (c *Checker) noteCSN(csn uint64) {
	if csn > c.maxSeen {
		c.maxSeen = csn
	}
}

// commit integrates a terminating transaction into the window, derives
// its dependency edges, applies the SI rules, and checks for a cycle
// through it.
func (c *Checker) commit(p *pendingTx, commitCSN uint64, tag string) {
	c.stats.Commits++
	if !p.begun {
		c.stats.GapTxs++
	}
	n := &txNode{
		id:      p.id,
		start:   p.start,
		commit:  commitCSN,
		begun:   p.begun,
		writer:  len(p.writes) > 0,
		tag:     tag,
		outSeen: make(map[uint64]uint8),
		reads:   p.reads,
		writes:  dedupeWrites(p.writes),
	}
	n.writes = n.writes[:len(n.writes):len(n.writes)]
	c.window[n.id] = n
	heap.Push(&c.byCSN, n)
	if w := len(c.window); w > c.stats.MaxWindow {
		c.stats.MaxWindow = w
	}

	siRules := c.cfg.SIRules && n.begun

	// Writes: install versions, derive WW and (from earlier committed
	// readers) RW/WR edges, and check the concurrent-writer rule.
	for _, w := range n.writes {
		it := c.itemFor(w.item)
		vs := it.versions
		idx := sort.Search(len(vs), func(i int) bool { return vs[i].csn >= w.csn })
		if idx < len(vs) && vs[idx].csn == w.csn {
			// Two committed versions sharing a CSN cannot come from a
			// real run; keep the first, drop this one.
			c.stats.Ignored++
			continue
		}
		if siRules {
			// Concurrent committed writers of one item violate SI's
			// First-Updater-Wins contract. Versions inside our
			// (start, commit) window committed while we ran; versions
			// after our commit violate iff their creator's snapshot
			// predates our commit (symmetric overlap, detected at the
			// later integration whichever event order delivered them).
			for i := idx - 1; i >= 0 && vs[i].csn > n.start; i-- {
				c.addViolation(Violation{
					Kind: LostUpdate, Txs: []uint64{vs[i].tx, n.id},
					Table: w.item.table, Key: w.item.key, CSN: vs[i].csn,
				})
			}
			for i := idx; i < len(vs); i++ {
				if u := c.window[vs[i].tx]; u != nil && u.begun && w.csn > u.start {
					c.addViolation(Violation{
						Kind: LostUpdate, Txs: []uint64{n.id, vs[i].tx},
						Table: w.item.table, Key: w.item.key, CSN: w.csn,
					})
				}
			}
		}
		lo := uint64(0)
		if idx > 0 {
			lo = vs[idx-1].csn
		}
		it.versions = append(vs, version{})
		copy(it.versions[idx+1:], it.versions[idx:])
		it.versions[idx] = version{csn: w.csn, tx: n.id}
		if idx > 0 {
			c.addEdge(it.versions[idx-1].tx, n.id, WW, w.item)
		}
		if idx+1 < len(it.versions) {
			c.addEdge(n.id, it.versions[idx+1].tx, WW, w.item)
		}
		// RW goes to exactly the readers whose first next version this
		// one becomes: reads in [predecessor, w.csn). Readers of even
		// older versions already hold an RW to a closer writer, and the
		// WW chain implies the rest — scanning them too would make a hot
		// item quadratic in the window. Readers AT w.csn saw this very
		// version before its writer integrated: WR.
		rs := it.readers
		i := sort.Search(len(rs), func(i int) bool { return rs[i].csn >= lo })
		for ; i < len(rs) && rs[i].csn < w.csn; i++ {
			c.addEdge(rs[i].tx, n.id, RW, w.item)
		}
		for ; i < len(rs) && rs[i].csn == w.csn; i++ {
			c.addEdge(n.id, rs[i].tx, WR, w.item)
		}
	}

	// Reads: WR from the creator of the version read, RW to the creator
	// of the next version, plus the SI read rules.
	for _, r := range n.reads {
		it := c.itemFor(r.item)
		if siRules {
			if r.csn > n.start {
				c.addViolation(Violation{
					Kind: FutureRead, Txs: []uint64{n.id},
					Table: r.item.table, Key: r.item.key, CSN: r.csn,
				})
			} else if stale, scsn := staleAgainst(it, r.csn, n.start); stale {
				c.addViolation(Violation{
					Kind: StaleRead, Txs: []uint64{n.id},
					Table: r.item.table, Key: r.item.key, CSN: scsn,
				})
			}
		}
		vs := it.versions
		idx := sort.Search(len(vs), func(i int) bool { return vs[i].csn >= r.csn })
		if idx < len(vs) && vs[idx].csn == r.csn {
			c.addEdge(vs[idx].tx, n.id, WR, r.item)
			idx++
		}
		// Reads of versions created outside the traced window (the
		// loader, or retired history) have no source node: no WR edge.
		if idx < len(vs) {
			c.addEdge(n.id, vs[idx].tx, RW, r.item)
		}
		// Keep readers sorted by read CSN so writers can range-scan the
		// predecessor interval above.
		rs2 := it.readers
		pos := sort.Search(len(rs2), func(i int) bool { return rs2[i].csn > r.csn })
		it.readers = append(rs2, readerRec{})
		copy(it.readers[pos+1:], it.readers[pos:])
		it.readers[pos] = readerRec{csn: r.csn, tx: n.id}
	}

	c.checkCycle(n)
}

// staleAgainst reports whether a read of version r violates the
// snapshot rule: some version v with r < v.csn <= start exists (the
// snapshot contained v, so reading r is stale). Pruned versions are
// covered by prunedMax.
func staleAgainst(it *itemState, r, start uint64) (bool, uint64) {
	vs := it.versions
	idx := sort.Search(len(vs), func(i int) bool { return vs[i].csn > r })
	if idx < len(vs) && vs[idx].csn <= start {
		return true, vs[idx].csn
	}
	if r < it.prunedMax && it.prunedMax <= start {
		return true, it.prunedMax
	}
	return false, 0
}

// dedupeWrites drops repeated writes of the same item (one committed
// version per item per transaction; duplicates only occur in malformed
// streams).
func dedupeWrites(ws []ref) []ref {
	if len(ws) < 2 {
		return ws
	}
	seen := make(map[itemKey]bool, len(ws))
	out := ws[:0]
	for _, w := range ws {
		if !seen[w.item] {
			seen[w.item] = true
			out = append(out, w)
		}
	}
	return out
}

// itemFor returns (creating if needed) the index entry for an item.
func (c *Checker) itemFor(k itemKey) *itemState {
	it := c.items[k]
	if it == nil {
		it = &itemState{}
		c.items[k] = it
	}
	return it
}

// edge-kind bits for outSeen dedup.
func kindBit(k DepKind) uint8 { return 1 << uint8(k) }

// addEdge records from→to if both ends are live and the (to, kind)
// pair is new for from. Self-edges are not dependencies.
func (c *Checker) addEdge(from, to uint64, kind DepKind, item itemKey) {
	if from == to {
		return
	}
	fn := c.window[from]
	if fn == nil || c.window[to] == nil {
		return
	}
	if fn.outSeen[to]&kindBit(kind) != 0 {
		return
	}
	fn.outSeen[to] |= kindBit(kind)
	fn.out = append(fn.out, edge{to: to, kind: kind, item: item})
	c.stats.Edges++
}

// checkCycle searches for a dependency path from n back to n. Every
// edge added by n's integration is incident on n, so any cycle the
// commit closed passes through n; one DFS bounded by the window size
// decides it.
func (c *Checker) checkCycle(n *txNode) {
	type frame struct {
		node *txNode
		ei   int
	}
	visited := map[uint64]bool{n.id: true}
	var stack []frame
	var path []edge
	stack = append(stack, frame{node: n})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.ei >= len(f.node.out) {
			stack = stack[:len(stack)-1]
			if len(path) > 0 {
				path = path[:len(path)-1]
			}
			continue
		}
		e := f.node.out[f.ei]
		f.ei++
		if e.to == n.id {
			path = append(path, e)
			c.reportCycle(n, path)
			return
		}
		next := c.window[e.to]
		if next == nil || visited[e.to] {
			continue
		}
		visited[e.to] = true
		path = append(path, e)
		stack = append(stack, frame{node: next})
	}
}

// reportCycle converts a closing path (n → ... → n) into a Violation.
// Every node on a DFS path is in the window.
func (c *Checker) reportCycle(n *txNode, path []edge) {
	c.cycles++
	v := Violation{Kind: Cycle, Txs: []uint64{n.id}, Tags: []string{n.tag}}
	from, rw, readOnly := n, 0, false
	for _, e := range path {
		to := c.window[e.to]
		v.Edges = append(v.Edges, Dep{From: from.id, To: to.id, Kind: e.kind, Table: e.item.table, Key: e.item.key})
		v.Txs = append(v.Txs, to.id)
		v.Tags = append(v.Tags, to.tag)
		if e.kind == RW {
			rw++
		}
		readOnly = readOnly || !to.writer
		from = to
	}
	v.Anomaly = classifyCycle(len(path), rw, readOnly)
	c.retainViolation(v)
}

// addViolation records an SI-rule violation.
func (c *Checker) addViolation(v Violation) {
	c.stats.SIViolations++
	c.retainViolation(v)
}

// retainViolation stamps window bounds and keeps the record if under
// the retention cap.
func (c *Checker) retainViolation(v Violation) {
	v.Window = WindowBounds{Size: len(c.window), NewestCSN: c.maxSeen, Watermark: c.watermark}
	if len(c.byCSN) > 0 {
		v.Window.OldestCSN = c.byCSN[0].commit
	}
	if len(c.violations) < c.cfg.MaxViolations {
		c.violations = append(c.violations, v)
	}
}

// endPass advances the retirement watermark and prunes the window: a
// committed transaction whose commit CSN is at or below the watermark
// can never gain another in-edge (every unseen transaction's snapshot
// is at least floorPrev; every known in-flight transaction's snapshot
// bounds the minimum directly), so it is removed from every index.
func (c *Checker) endPass() {
	wm := c.floorPrev
	for _, p := range c.pending {
		s := p.start
		if !p.begun {
			s = p.effStart
		}
		if s < wm {
			wm = s
		}
	}
	if wm > c.watermark {
		c.watermark = wm
	}
	for len(c.byCSN) > 0 && c.byCSN[0].commit <= c.watermark {
		c.retire(heap.Pop(&c.byCSN).(*txNode))
	}
	c.floorPrev = c.maxSeen
}

// retire removes one committed transaction from the window and its
// entries from the per-item indexes.
func (c *Checker) retire(n *txNode) {
	delete(c.window, n.id)
	c.stats.Retired++
	for _, w := range n.writes {
		it := c.items[w.item]
		if it == nil {
			continue
		}
		vs := it.versions
		idx := sort.Search(len(vs), func(i int) bool { return vs[i].csn >= w.csn })
		if idx < len(vs) && vs[idx].csn == w.csn && vs[idx].tx == n.id {
			it.versions = append(vs[:idx], vs[idx+1:]...)
			if w.csn > it.prunedMax {
				it.prunedMax = w.csn
			}
		}
		c.dropItemIfEmpty(w.item, it)
	}
	for _, r := range n.reads {
		it := c.items[r.item]
		if it == nil {
			continue
		}
		for i := len(it.readers) - 1; i >= 0; i-- {
			if it.readers[i].tx == n.id {
				it.readers = append(it.readers[:i], it.readers[i+1:]...)
			}
		}
		c.dropItemIfEmpty(r.item, it)
	}
}

// dropItemIfEmpty frees an item entry once nothing references it and
// no pruned-version watermark must be remembered... except the
// watermark must be remembered as long as SI rules are on, so entries
// with prunedMax persist (bounded by the key space, like the database
// itself).
func (c *Checker) dropItemIfEmpty(k itemKey, it *itemState) {
	if len(it.versions) == 0 && len(it.readers) == 0 && it.prunedMax == 0 {
		delete(c.items, k)
	}
}
