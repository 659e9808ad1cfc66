package wal

import "os"

// LogDevice is the durable medium behind the WAL. The paper's testbed
// puts the log on a dedicated disk with the write cache disabled; here
// that disk is a SegmentLog — a directory of wal.000N files, or the
// same layout in memory for tests and the crash-chaos harness. The
// interface exists so a caller can wrap the segment log (for example to
// time each device call); the checkpoint chain's segment retirement and
// the simulated crashes need the *SegmentLog itself and are skipped
// behind a wrapper.
//
// A device carries no framing knowledge: it stores the byte stream the
// WAL appends. A crash may leave the final append incomplete — the
// recovery decoder's torn-tail rule handles that.
//
// Append and Sync split the durability point: Append buffers bytes at
// the tail (the OS page cache), Sync is the fdatasync-equivalent that
// makes every prior Append durable. The flush loop exploits the split
// to coalesce many flush groups into one device sync; nothing is
// acknowledged to a committer until a Sync covering its append returns.
type LogDevice interface {
	// Append adds b to the end of the log. The bytes are buffered, not
	// yet durable: a crash before the next Sync may lose any suffix of
	// the unsynced tail, and a crash mid-Sync may persist any prefix of
	// it.
	Append(b []byte) error
	// Sync makes every byte appended so far durable. A Sync error voids
	// the durability promise of everything since the last successful
	// Sync (the fsyncgate lesson) — the WAL bricks itself on it.
	Sync() error
}

// syncDir fsyncs a directory, making a create, rename or unlink inside
// it durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}
