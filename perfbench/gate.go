package main

import (
	"fmt"
	"sort"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

// gateReport is what the correctness gate measured on its way.
type gateReport struct {
	logBytes   int64
	recoverDur time.Duration
}

// verify is the correctness gate every run passes before it prints a
// number. With the clients stopped it drains the server and checks that
// no connection slot and no transaction is left, that the money the
// clients' committed deltas account for is exactly the money in the
// database, and that the log recovers to the final published state row
// for row. It consumes the node: the engine and the log are closed and
// recovered from disk.
func verify(n *node, ledger int64) (gateReport, error) {
	var rep gateReport
	if n.srv != nil {
		st, err := n.stopServing()
		if err != nil {
			return rep, err
		}
		if st.Gate.InFlight != 0 || st.Gate.QueueDepth != 0 {
			return rep, fmt.Errorf("server admission gate not empty after drain: %d in flight, %d queued",
				st.Gate.InFlight, st.Gate.QueueDepth)
		}
	}
	if k := n.db.InFlightTxns(); k != 0 {
		return rep, fmt.Errorf("%d transactions still in flight after the clients stopped", k)
	}
	total, err := smallbank.TotalMoney(n.db)
	if err != nil {
		return rep, err
	}
	if err := checkLedger(n.loaded, ledger, total); err != nil {
		return rep, err
	}

	if err := n.db.WaitDurable(n.db.CommitSeq()); err != nil {
		return rep, fmt.Errorf("wait durable: %w", err)
	}
	want, err := captureState(n.db)
	if err != nil {
		return rep, err
	}
	if err := n.closeDB(); err != nil {
		return rep, err
	}
	seg, err := wal.OpenSegmentLog(n.dir, segmentBytes)
	if err != nil {
		return rep, err
	}
	defer seg.Close()
	rep.logBytes = seg.Size()
	start := time.Now()
	rdb, _, err := engine.Recover(seg, engineConfig(seg))
	rep.recoverDur = time.Since(start)
	if err != nil {
		return rep, fmt.Errorf("recover: %w", err)
	}
	got, err := captureState(rdb)
	rdb.Close()
	if err != nil {
		return rep, err
	}
	return rep, checkRecovered(want, got)
}

// checkLedger checks money conservation: the loaded total plus every
// committed delta the clients recorded must equal the money in the
// database.
func checkLedger(loaded, ledger, total int64) error {
	if loaded+ledger != total {
		return fmt.Errorf("money not conserved: loaded %d + committed deltas %d = %d, database holds %d",
			loaded, ledger, loaded+ledger, total)
	}
	return nil
}

// state is a database image: table and key to the row's rendering.
type state map[string]string

// captureState reads the newest committed version of every row of the
// four SmallBank tables.
func captureState(db *engine.DB) (state, error) {
	s := state{}
	for _, t := range []string{smallbank.TableAccount, smallbank.TableSaving, smallbank.TableChecking, smallbank.TableConflict} {
		err := db.ScanLatest(t, func(k core.Value, rec core.Record) bool {
			s[t+"/"+k.String()] = rec.String()
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkRecovered compares a recovered image with the published one row
// for row, naming the first few differences.
func checkRecovered(want, got state) error {
	var diffs []string
	for k, w := range want {
		switch g, ok := got[k]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("row %s missing after recovery", k))
		case g != w:
			diffs = append(diffs, fmt.Sprintf("row %s recovered as %s, published %s", k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("row %s recovered but never published", k))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("and %d more", len(diffs)-3))
	}
	return fmt.Errorf("recovered image differs from the published state: %v", diffs)
}
