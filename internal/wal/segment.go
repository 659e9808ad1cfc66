package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sicost/internal/faultinject"
)

// FaultRotate fires inside SegmentLog.Append when the size threshold
// triggers a segment rotation, before the current segment is sealed. An
// injected error fails the append (the WAL bricks on it, as on any
// device error); an ActPanic models the process dying mid-rotation —
// the append is rejected and the WAL drops the current segment's
// unsynced tail (page cache), but every synced byte survives for
// recovery.
const FaultRotate = "wal/rotate"

// FaultRetire fires inside SegmentLog.RetireSegments once per segment,
// before that segment is archived or unlinked. An injected error or an
// ActPanic (process death mid-retire) stops the sweep with a prefix of
// the eligible segments removed — still a contiguous suffix layout that
// openSegments and recovery accept, because removal runs oldest-first.
const FaultRetire = "wal/retire"

const segPrefix = "wal."

// SegmentName returns the canonical file name of segment index i:
// "wal." plus a four-digit-minimum zero-padded decimal (wal.0000,
// wal.0001, ... wal.10000).
func SegmentName(i int) string { return fmt.Sprintf("%s%04d", segPrefix, i) }

// ParseSegmentName parses a segment file name produced by SegmentName.
// It accepts "wal." followed by 4–9 decimal digits and returns the
// index; anything else — wrong prefix, short or overlong digit runs,
// non-digits — reports ok == false. The digit cap keeps the index well
// inside int range on every platform.
func ParseSegmentName(name string) (idx int, ok bool) {
	if len(name) < len(segPrefix)+4 || len(name) > len(segPrefix)+9 ||
		name[:len(segPrefix)] != segPrefix {
		return 0, false
	}
	n := 0
	for i := len(segPrefix); i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// SegmentData is one segment's raw image, for classification.
type SegmentData struct {
	Index int
	Data  []byte
}

// segFile is one open segment of a SegmentLog.
type segFile interface {
	append(b []byte) error
	sync() error
	truncate(n int64) error
	// prealloc extends the segment's physical size to n bytes of zero
	// padding without moving the logical tail, so later appends land in
	// already-allocated blocks instead of growing the file (and its
	// metadata) on every flush. A no-op when n is at or below the
	// current size, and on media without the distinction (memory).
	prealloc(n int64) error
	read() ([]byte, error)
	close() error
}

// segStore is the medium a SegmentLog manages segments on: an in-memory
// map (tests, crash chaos, fuzzing) or a directory of wal.000N files.
type segStore interface {
	// list returns the indices of existing segments, unsorted.
	list() ([]int, error)
	// open returns an existing segment's handle and size.
	open(idx int) (segFile, int64, error)
	// create makes a new empty segment.
	create(idx int) (segFile, error)
	// remove deletes a segment.
	remove(idx int) error
	// archive durably copies a segment's image into dir before it is
	// removed (the point-in-time-recovery source).
	archive(dir string, idx int, data []byte) error
	// syncDir makes creations/removals durable (file backend).
	syncDir() error
}

// SegmentLog is the log device: it stores the byte stream as wal.000N
// segments, rotating to a fresh segment when an append would push the
// current one past the size threshold. Rotation happens only between
// Appends, so one flush group never spans segments — but recovery scans
// the concatenation, so even a frame split across a boundary (e.g. by a
// foreign writer) decodes fine. The log is bounded by RetireSegments,
// which the checkpoint chain calls after each completed link to unlink
// the sealed segments the chain covers, oldest first, so a crash at any
// point leaves a contiguous, decodable sequence.
type SegmentLog struct {
	mu      sync.Mutex
	store   segStore
	segSize int64
	// prealloc, when positive, is the physical size segments are created
	// at (see SetPrealloc). Segment sizes in segMeta stay logical: the
	// bytes actually appended, which is what recovery, rotation and
	// Size() reason about.
	prealloc int64
	faults   *faultinject.Registry

	segs      []segMeta // ascending, contiguous indices; last is current
	cur       segFile
	curSynced int64
	total     int64
}

type segMeta struct {
	idx  int
	size int64
}

// DefaultSegmentSize is the rotation threshold used when a segment size
// of zero (or less) is asked for.
const DefaultSegmentSize = 16 << 20

// openSegments initializes a SegmentLog over a store: existing segments
// are adopted (indices must be contiguous), an empty store gets segment
// 0. Adopted content counts as synced — it is what survived.
func openSegments(store segStore, segSize int64) (*SegmentLog, error) {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	l := &SegmentLog{store: store, segSize: segSize}
	idxs, err := store.list()
	if err != nil {
		return nil, err
	}
	sort.Ints(idxs)
	if len(idxs) == 0 {
		f, err := store.create(0)
		if err != nil {
			return nil, err
		}
		if err := store.syncDir(); err != nil {
			f.close()
			return nil, err
		}
		l.segs = []segMeta{{idx: 0}}
		l.cur = f
		return l, nil
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i] != idxs[i-1]+1 {
			return nil, fmt.Errorf("wal: segment sequence broken: %s missing (have %s and %s)",
				SegmentName(idxs[i-1]+1), SegmentName(idxs[i-1]), SegmentName(idxs[i]))
		}
	}
	for _, idx := range idxs {
		f, size, err := store.open(idx)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, segMeta{idx: idx, size: size})
		l.total += size
		if idx == idxs[len(idxs)-1] {
			l.cur = f
			l.curSynced = size
		} else {
			f.close()
		}
	}
	return l, nil
}

// NewMemSegmentLog returns an empty in-memory segmented log (tests and
// the crash-chaos harness). A segSize of zero or less means
// DefaultSegmentSize.
func NewMemSegmentLog(segSize int64) (*SegmentLog, error) {
	return NewMemSegmentLogFrom(nil, segSize)
}

// NewMemSegmentLogFrom returns an in-memory segmented log preloaded with
// captured segment images (a crashed log's Segments, or a fuzz input).
// The preload counts as synced — a captured image is by definition on
// the platter — and its indices must be distinct and contiguous, as in
// a real log directory.
func NewMemSegmentLogFrom(segs []SegmentData, segSize int64) (*SegmentLog, error) {
	st := &memSegStore{segs: make(map[int]*memSeg, len(segs))}
	for _, s := range segs {
		if _, dup := st.segs[s.Index]; dup {
			return nil, fmt.Errorf("wal: duplicate segment %s", SegmentName(s.Index))
		}
		st.segs[s.Index] = &memSeg{buf: append([]byte(nil), s.Data...)}
	}
	return openSegments(st, segSize)
}

// OpenSegmentLog opens (creating if needed) a segmented log in dir. A
// segSize of zero or less means DefaultSegmentSize. Existing wal.000N
// files are adopted; foreign files are ignored.
func OpenSegmentLog(dir string, segSize int64) (*SegmentLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return openSegments(&fileSegStore{dir: dir}, segSize)
}

// SetFaults installs the registry consulted by FaultRotate. The WAL
// propagates its own registry here via wal.SetFaults.
func (l *SegmentLog) SetFaults(r *faultinject.Registry) {
	l.mu.Lock()
	l.faults = r
	l.mu.Unlock()
}

// SetPrealloc makes the log create segments at a physical size of n
// bytes (zero-padded past the logical tail) and applies it to the
// current segment immediately. Appends then overwrite preallocated
// blocks instead of extending the file, sparing the per-flush metadata
// (size) update an append-grown file pays on every fdatasync. The
// logical tail is tracked separately: sealing a segment at rotation
// trims the physical padding away (sealed segments must be exactly
// their valid frames — the torn-tail rule only tolerates garbage in the
// final segment), and a crash with padding still in place is repaired
// by recovery's CRC scan, which cuts the zero tail like any torn write.
// Call it before appends are in flight; n at or below the segment
// threshold is typical (the last append may still overshoot it).
func (l *SegmentLog) SetPrealloc(n int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prealloc = n
	if n > 0 && l.cur != nil {
		if err := l.cur.prealloc(n); err != nil {
			return fmt.Errorf("wal: segment %s prealloc: %w", SegmentName(l.curMeta().idx), err)
		}
	}
	return nil
}

// fire hits one of the log's fault points, converting an injected
// crash panic into its error value: the WAL goroutine that called into
// the log must survive to report the crash, which devOp recognises by
// the *faultinject.Panic in the error chain.
func (l *SegmentLog) fire(point string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := faultinject.AsPanic(r)
			if !ok {
				panic(r)
			}
			err = p
		}
	}()
	return l.faults.Fire(point, faultinject.Ctx{})
}

// cur returns the current (last) segment's meta slot.
func (l *SegmentLog) curMeta() *segMeta { return &l.segs[len(l.segs)-1] }

// Append implements LogDevice, rotating first when the current segment
// is non-empty and b would push it past the threshold. (An oversized
// single append still lands whole in one segment: frames are never
// deliberately split.)
func (l *SegmentLog) Append(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cm := l.curMeta()
	if cm.size > 0 && cm.size+int64(len(b)) > l.segSize {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if err := l.cur.append(b); err != nil {
		return fmt.Errorf("wal: segment %s append: %w", SegmentName(l.curMeta().idx), err)
	}
	l.curMeta().size += int64(len(b))
	l.total += int64(len(b))
	return nil
}

// Rotate seals the current segment and opens the next, unless the
// current segment is still empty. A forced checkpoint re-root rotates
// (through WAL.Rotate) before appending its begin marker, so once the
// link completes every earlier segment is covered and can retire.
func (l *SegmentLog) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.curMeta().size == 0 {
		return nil
	}
	return l.rotate()
}

// rotate seals the current segment and opens the next. The seal is a
// sync — a sealed segment is immutable and fully durable — followed by
// the creation of segment N+1 and a directory sync. A crash anywhere in
// between leaves either [.., N] or [.., N, N+1(empty)], both contiguous
// and decodable.
func (l *SegmentLog) rotate() error {
	if err := l.fire(FaultRotate); err != nil {
		// An injected crash comes back as a *faultinject.Panic error;
		// the WAL then drops the unsynced tail (DropUnsynced) as for any
		// crash.
		return fmt.Errorf("wal: segment rotation: %w", err)
	}
	if l.prealloc > 0 {
		// Seal-trim: cut the preallocated zero padding so the sealed
		// segment is exactly its logical bytes (sealed segments admit no
		// torn tail).
		if err := l.cur.truncate(l.curMeta().size); err != nil {
			return fmt.Errorf("wal: segment seal trim: %w", err)
		}
	}
	if err := l.cur.sync(); err != nil {
		return fmt.Errorf("wal: segment seal: %w", err)
	}
	next := l.curMeta().idx + 1
	f, err := l.store.create(next)
	if err != nil {
		return fmt.Errorf("wal: segment create: %w", err)
	}
	if l.prealloc > 0 {
		if err := f.prealloc(l.prealloc); err != nil {
			f.close()
			return fmt.Errorf("wal: segment %s prealloc: %w", SegmentName(next), err)
		}
	}
	if err := l.store.syncDir(); err != nil {
		f.close()
		return fmt.Errorf("wal: segment create: %w", err)
	}
	l.cur.close()
	l.cur = f
	l.curSynced = 0
	l.segs = append(l.segs, segMeta{idx: next})
	return nil
}

// Sync implements LogDevice: only the current segment can hold unsynced
// bytes (rotation seals its predecessors).
func (l *SegmentLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.cur.sync(); err != nil {
		return fmt.Errorf("wal: segment sync: %w", err)
	}
	l.curSynced = l.curMeta().size
	return nil
}

// DropUnsynced simulates a power failure: the current segment's
// unsynced tail is lost with the page cache (sealed segments were
// synced at rotation). It returns how many bytes were lost. The WAL
// calls it when an injected crash kills the device.
func (l *SegmentLog) DropUnsynced() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cm := l.curMeta()
	dropped := cm.size - l.curSynced
	if dropped <= 0 {
		return 0, nil
	}
	if err := l.cur.truncate(l.curSynced); err != nil {
		return 0, err
	}
	cm.size = l.curSynced
	l.total -= dropped
	return dropped, nil
}

// Segments returns every live segment's image in index order — the
// input recovery and ClassifySegments validate and scan.
func (l *SegmentLog) Segments() ([]SegmentData, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentData, 0, len(l.segs))
	for i, m := range l.segs {
		var (
			b   []byte
			err error
		)
		if i == len(l.segs)-1 {
			b, err = l.cur.read()
		} else {
			f, _, oerr := l.store.open(m.idx)
			if oerr != nil {
				return nil, oerr
			}
			b, err = f.read()
			f.close()
		}
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s read: %w", SegmentName(m.idx), err)
		}
		out = append(out, SegmentData{Index: m.idx, Data: b})
	}
	return out, nil
}

// RetireSegments unlinks sealed segments with index < beforeIdx, oldest
// first, each optionally copied to archiveDir first (copy synced before
// the unlink, so the archive never misses a retired segment). The current segment is never retired. A failure —
// injected or real — stops the sweep mid-way; because removal is
// oldest-first, the survivors [k..N] stay a contiguous index range that
// openSegments and ClassifySegments accept.
func (l *SegmentLog) RetireSegments(beforeIdx int, archiveDir string) (retired, archived int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && l.segs[0].idx < beforeIdx {
		m := l.segs[0]
		if ferr := l.fire(FaultRetire); ferr != nil {
			_ = l.store.syncDir()
			return retired, archived, fmt.Errorf("wal: segment retire %s: %w", SegmentName(m.idx), ferr)
		}
		if archiveDir != "" {
			f, _, oerr := l.store.open(m.idx)
			if oerr != nil {
				return retired, archived, fmt.Errorf("wal: segment retire %s: %w", SegmentName(m.idx), oerr)
			}
			data, rerr := f.read()
			f.close()
			if rerr != nil {
				return retired, archived, fmt.Errorf("wal: segment retire %s: %w", SegmentName(m.idx), rerr)
			}
			if aerr := l.store.archive(archiveDir, m.idx, data); aerr != nil {
				return retired, archived, fmt.Errorf("wal: segment archive %s: %w", SegmentName(m.idx), aerr)
			}
			archived++
		}
		if rerr := l.store.remove(m.idx); rerr != nil {
			return retired, archived, fmt.Errorf("wal: segment retire %s: %w", SegmentName(m.idx), rerr)
		}
		l.total -= m.size
		l.segs = l.segs[1:]
		retired++
	}
	if retired > 0 {
		if serr := l.store.syncDir(); serr != nil {
			return retired, archived, fmt.Errorf("wal: segment retire: %w", serr)
		}
	}
	return retired, archived, nil
}

// TruncateTail discards everything past the logical offset valid
// (recovery's torn-tail repair). Later segments are removed
// newest-first, then the segment containing the cut is truncated.
func (l *SegmentLog) TruncateTail(valid int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if valid > l.total {
		return fmt.Errorf("wal: truncate to %d beyond log size %d", valid, l.total)
	}
	// Find the segment containing the cut.
	off := int64(0)
	cutSeg := 0
	for i, m := range l.segs {
		if valid <= off+m.size {
			cutSeg = i
			break
		}
		off += m.size
	}
	// Remove segments after it, newest-first (keeps [0..cut] contiguous
	// if interrupted).
	if cutSeg < len(l.segs)-1 {
		l.cur.close()
		for i := len(l.segs) - 1; i > cutSeg; i-- {
			if err := l.store.remove(l.segs[i].idx); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			l.total -= l.segs[i].size
			l.segs = l.segs[:i]
		}
		// Reopen the surviving tail segment as current.
		f, _, err := l.store.open(l.segs[cutSeg].idx)
		if err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.cur = f
	}
	keep := valid - off
	if keep < l.segs[cutSeg].size {
		if err := l.cur.truncate(keep); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		if err := l.cur.sync(); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.total -= l.segs[cutSeg].size - keep
		l.segs[cutSeg].size = keep
	}
	l.curSynced = l.segs[cutSeg].size
	if l.prealloc > 0 {
		// Re-extend the padding the repair just cut: the surviving tail
		// segment is current again and appends resume into it.
		if err := l.cur.prealloc(l.prealloc); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	_ = l.store.syncDir()
	return nil
}

// Size returns the live log length in bytes (retired segments excluded).
func (l *SegmentLog) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// CurrentSegment returns the index of the segment new appends land in.
// The engine samples it while appending a chain root's begin marker
// (under the commit barrier): every earlier segment is covered once
// that chain completes, so the sample is the chain's retirement bound.
func (l *SegmentLog) CurrentSegment() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curMeta().idx
}

// SegmentCount returns the number of live segments (observability).
func (l *SegmentLog) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close releases the current segment's handle.
func (l *SegmentLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil {
		err := l.cur.close()
		l.cur = nil
		return err
	}
	return nil
}

// ---- in-memory backend ----

type memSeg struct {
	mu  sync.Mutex
	buf []byte
}

func (s *memSeg) append(b []byte) error {
	s.mu.Lock()
	s.buf = append(s.buf, b...)
	s.mu.Unlock()
	return nil
}
func (s *memSeg) sync() error { return nil }
func (s *memSeg) truncate(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > int64(len(s.buf)) {
		return fmt.Errorf("wal: mem segment truncate %d > %d", n, len(s.buf))
	}
	s.buf = s.buf[:n]
	return nil
}
func (s *memSeg) prealloc(int64) error { return nil }
func (s *memSeg) read() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...), nil
}
func (s *memSeg) close() error { return nil }

type memSegStore struct {
	mu       sync.Mutex
	segs     map[int]*memSeg
	archived map[int][]byte // retired-segment images, keyed by index
}

func (st *memSegStore) list() ([]int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.segs))
	for i := range st.segs {
		out = append(out, i)
	}
	return out, nil
}

func (st *memSegStore) open(idx int) (segFile, int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[idx]
	if !ok {
		return nil, 0, fmt.Errorf("wal: mem segment %s missing", SegmentName(idx))
	}
	return s, int64(len(s.buf)), nil
}

func (st *memSegStore) create(idx int) (segFile, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.segs[idx]; ok {
		return nil, fmt.Errorf("wal: mem segment %s exists", SegmentName(idx))
	}
	s := &memSeg{}
	st.segs[idx] = s
	return s, nil
}

func (st *memSegStore) remove(idx int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.segs, idx)
	return nil
}

func (st *memSegStore) archive(dir string, idx int, data []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.archived == nil {
		st.archived = map[int][]byte{}
	}
	st.archived[idx] = append([]byte(nil), data...)
	return nil
}

func (st *memSegStore) syncDir() error { return nil }

// ---- file backend ----

type fileSeg struct {
	f    *os.File
	size int64
}

func (s *fileSeg) append(b []byte) error {
	n, err := s.f.WriteAt(b, s.size)
	s.size += int64(n)
	return err
}
func (s *fileSeg) sync() error { return s.f.Sync() }
func (s *fileSeg) truncate(n int64) error {
	if err := s.f.Truncate(n); err != nil {
		return err
	}
	s.size = n
	return nil
}
func (s *fileSeg) prealloc(n int64) error {
	if n <= s.size {
		return nil
	}
	// Zero-extend the physical file; s.size (the logical tail appends
	// write at) is untouched.
	return s.f.Truncate(n)
}
func (s *fileSeg) read() ([]byte, error) {
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil && s.size > 0 {
		return nil, err
	}
	return buf, nil
}
func (s *fileSeg) close() error { return s.f.Close() }

type fileSegStore struct {
	dir string
}

func (st *fileSegStore) list() ([]int, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if idx, ok := ParseSegmentName(e.Name()); ok {
			out = append(out, idx)
		}
	}
	return out, nil
}

func (st *fileSegStore) open(idx int) (segFile, int64, error) {
	f, err := os.OpenFile(filepath.Join(st.dir, SegmentName(idx)), os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return &fileSeg{f: f, size: fi.Size()}, fi.Size(), nil
}

func (st *fileSegStore) create(idx int) (segFile, error) {
	f, err := os.OpenFile(filepath.Join(st.dir, SegmentName(idx)), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileSeg{f: f}, nil
}

func (st *fileSegStore) remove(idx int) error {
	return os.Remove(filepath.Join(st.dir, SegmentName(idx)))
}

func (st *fileSegStore) archive(dir string, idx int, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, SegmentName(idx)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return syncDir(dir)
}

func (st *fileSegStore) syncDir() error { return syncDir(st.dir) }
