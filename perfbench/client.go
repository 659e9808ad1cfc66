package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/server"
	"sicost/internal/smallbank"
)

// tally is one client's outcome accounting. Counters and latencies
// cover logical transactions that ended inside the measured window;
// ledger and the all-run counts cover every transaction the client ran,
// because the correctness gate checks the whole run.
type tally struct {
	// In the measured window.
	txns, commits, appRollbacks, failed int64
	attempts                            int64
	aborts                              [core.AbortOther + 1]int64 // retried attempts by class
	lat                                 []time.Duration            // per logical transaction, retries included
	// backedOff counts logical transactions that aborted backoffAfter
	// times in a row and so waited before later attempts; longest is
	// the most attempts one of them took.
	backedOff, longest int64

	// Whole run.
	runTxns, runFailed int64
	ledger             int64 // sum of committed money deltas
	firstErr           error
}

// resetWindow clears the measured-window counters, keeping the whole-run
// ones.
func (t *tally) resetWindow() {
	*t = tally{runTxns: t.runTxns, runFailed: t.runFailed, ledger: t.ledger, firstErr: t.firstErr}
}

func (t *tally) merge(o *tally) {
	t.txns += o.txns
	t.commits += o.commits
	t.appRollbacks += o.appRollbacks
	t.failed += o.failed
	t.attempts += o.attempts
	t.backedOff += o.backedOff
	t.longest = max(t.longest, o.longest)
	for i, v := range o.aborts {
		t.aborts[i] += v
	}
	t.lat = append(t.lat, o.lat...)
	t.runTxns += o.runTxns
	t.runFailed += o.runFailed
	t.ledger += o.ledger
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// errAppRollback marks the wire client's own application rollback
// (TransactSaving past the savings balance), the SQL twin of the
// program's core.ErrRollback.
var errAppRollback = fmt.Errorf("%w: savings balance would be negative", core.ErrRollback)

// stmtError is a statement the server answered with an error; the
// response carries the server's abort class and retriable flag.
type stmtError struct{ resp server.Response }

func (e *stmtError) Error() string { return e.resp.Err }

// errTransport marks a failed round trip: the connection is gone, so
// the client stops.
var errTransport = errors.New("transport failed")

// classify maps an attempt's error to its core.ClassifyAbort class and
// says whether the standard discipline retries it. A server error
// arrives as the class name the server computed.
func classify(err error) (reason core.AbortReason, retriable bool) {
	var se *stmtError
	if !errors.As(err, &se) {
		return core.ClassifyAbort(err), core.IsRetriable(err)
	}
	for r := core.AbortNone; r <= core.AbortOther; r++ {
		if r.String() == se.resp.Abort {
			return r, se.resp.Retriable
		}
	}
	return core.AbortOther, se.resp.Retriable
}

// transport carries one SQL statement to a server session and brings
// back its response; attempt is the calling attempt's span (0 when
// untraced).
type transport interface {
	roundTrip(q string, attempt uint64) (server.Response, error)
}

// tcpTransport speaks the server's newline-delimited JSON protocol on
// one connection.
type tcpTransport struct {
	nc  net.Conn
	r   *bufio.Reader
	buf []byte
}

func (t *tcpTransport) roundTrip(q string, _ uint64) (server.Response, error) {
	b, err := json.Marshal(server.Request{Q: q})
	if err != nil {
		return server.Response{}, err
	}
	t.buf = append(append(t.buf[:0], b...), '\n')
	if _, err := t.nc.Write(t.buf); err != nil {
		return server.Response{}, fmt.Errorf("send: %w", err)
	}
	line, err := t.r.ReadSlice('\n')
	if err != nil {
		return server.Response{}, fmt.Errorf("receive: %w", err)
	}
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return server.Response{}, fmt.Errorf("decode response: %w", err)
	}
	return resp, nil
}

// client is one closed-loop client: it sends its next transaction only
// when the previous one has ended.
type client struct {
	gen *generator
	// Exactly one of db and tp is set: db runs the smallbank programs
	// in-process, tp sends SQL text.
	db *engine.DB
	tp transport
	// spans, when non-nil, records the client-side spans of a traced
	// phase for one transaction in spanEvery; sp is spans while the
	// current transaction is sampled, nil otherwise.
	spans, sp *spanLog
	// keepLat keeps every measured transaction's latency; heap readings
	// leave the record out (see latBytes).
	keepLat bool
	// pause draws the random waits of retry backoff; it is seeded apart
	// from gen, so backoff leaves the transaction stream unchanged.
	pause *rand.Rand
	t     tally
}

// runClients runs the clients until the window is over and returns
// their merged tally.
func runClients(cs []*client, w window) *tally {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(w)
		}(c)
	}
	wg.Wait()
	total := &tally{}
	for _, c := range cs {
		total.merge(&c.t)
	}
	return total
}

func (c *client) loop(w window) {
	for {
		r := c.gen.next()
		start := time.Now()
		if !start.Before(w.end) || c.runTxn(r, start, w) {
			return
		}
	}
}

// runTxn runs one logical transaction to its outcome: commit,
// application rollback, or failure (a non-retriable error or running
// out of attempts). It reports true when the client cannot go on (its
// connection died).
func (c *client) runTxn(r txnReq, start time.Time, w window) (fatal bool) {
	c.sp = nil
	if c.spans != nil && c.t.runTxns%spanEvery == 0 {
		c.sp = c.spans
	}
	var txnSpan uint64
	if c.sp != nil {
		txnSpan = c.sp.newID()
	}
	var attempts int64
	var aborts [core.AbortOther + 1]int64
	var committed, appRollback bool
	var failErr error
	for {
		attempts++
		var attemptSpan uint64
		var as time.Time
		if c.sp != nil {
			attemptSpan, as = c.sp.newID(), time.Now()
		}
		delta, err := c.attempt(r, attemptSpan)
		if c.sp != nil {
			name := spanAttempt
			if err != nil && !errors.Is(err, core.ErrRollback) {
				name = spanAttemptAborted
			}
			c.sp.addID(attemptSpan, txnSpan, name, as, time.Now())
		}
		if err == nil {
			committed = true
			c.t.ledger += delta
			break
		}
		reason, retriable := classify(err)
		if reason == core.AbortApplication {
			appRollback = true
			break
		}
		if retriable && attempts < maxAttempts {
			aborts[reason]++
			c.backoff(attempts)
			continue
		}
		failErr = fmt.Errorf("%v after %d attempt(s): %w", r.typ, attempts, err)
		fatal = errors.Is(err, errTransport)
		break
	}
	end := time.Now()
	if c.sp != nil {
		c.sp.addID(txnSpan, 0, spanTxn, start, end)
	}
	c.t.runTxns++
	if failErr != nil {
		c.t.runFailed++
		if c.t.firstErr == nil {
			c.t.firstErr = failErr
		}
	}
	if !w.contains(end) {
		return fatal
	}
	c.t.txns++
	c.t.attempts += attempts
	if attempts > backoffAfter {
		c.t.backedOff++
		c.t.longest = max(c.t.longest, attempts)
	}
	for i, v := range aborts {
		c.t.aborts[i] += v
	}
	switch {
	case committed:
		c.t.commits++
	case appRollback:
		c.t.appRollbacks++
	default:
		c.t.failed++
	}
	if c.keepLat {
		c.t.lat = append(c.t.lat, end.Sub(start))
	}
	return fatal
}

// backoff waits before the retry that follows a transaction's aborts-th
// abort in a row. The first backoffAfter retries are immediate, as in
// the paper. Past them the wait is random, up to backoffBase doubled
// per further abort and capped at backoffMax: under SSI two concurrent
// transactions can doom each other, and when both retry at once with
// the same programs they meet and doom each other again, a livelock
// that only a difference in their timing breaks.
func (c *client) backoff(aborts int64) {
	if aborts < backoffAfter {
		return
	}
	limit := backoffMax
	if n := aborts - backoffAfter; n < 16 {
		limit = min(limit, backoffBase<<n)
	}
	time.Sleep(time.Duration(c.pause.Int63n(int64(limit)) + 1))
}

// attempt runs one attempt of r and returns the money it moves
// (deposits add, checks subtract, the rest conserve).
func (c *client) attempt(r txnReq, span uint64) (int64, error) {
	if c.tp != nil {
		return c.wireAttempt(r, span)
	}
	return c.engineAttempt(r, span)
}

// engineAttempt calls the smallbank program on the engine in-process.
func (c *client) engineAttempt(r txnReq, span uint64) (delta int64, err error) {
	var t time.Time
	if c.sp != nil {
		t = time.Now()
	}
	tx := c.db.Begin()
	defer tx.Abort()
	if c.sp != nil {
		t = c.sp.add(span, spanBegin, t)
	}
	p := r.params()
	s := smallbank.StrategySI
	switch r.typ {
	case smallbank.Balance:
		_, err = smallbank.RunBalance(tx, s, p)
	case smallbank.DepositChecking:
		delta = p.V
		err = smallbank.RunDepositChecking(tx, s, p)
	case smallbank.TransactSaving:
		delta = p.V
		err = smallbank.RunTransactSaving(tx, s, p)
	case smallbank.Amalgamate:
		err = smallbank.RunAmalgamate(tx, s, p)
	case smallbank.WriteCheck:
		// The overdraft penalty depends on the balances the program
		// reads; reading the same two rows in the same snapshot first
		// tells the ledger what the program will subtract.
		var total int64
		if total, err = balanceOf(tx, r.c1); err == nil {
			delta = -p.V
			if total < p.V {
				delta--
			}
			err = smallbank.RunWriteCheck(tx, s, p)
		}
	}
	if c.sp != nil {
		t = c.sp.add(span, spanExec, t)
	}
	if err != nil {
		return 0, err
	}
	err = tx.Commit()
	if c.sp != nil {
		c.sp.add(span, spanCommit, t)
	}
	if err != nil {
		return 0, err
	}
	return delta, nil
}

// balanceOf reads customer i's savings plus checking balance.
func balanceOf(tx *engine.Tx, i int) (int64, error) {
	var total int64
	for _, table := range []string{smallbank.TableSaving, smallbank.TableChecking} {
		rec, err := tx.Get(table, core.Int(int64(i)))
		if err != nil {
			return 0, err
		}
		total += rec[1].Int64()
	}
	return total, nil
}

// wireAttempt sends r as the paper's SQL (internal/smallbank/sql.go's
// statements with the parameters inlined) inside BEGIN ... COMMIT.
func (c *client) wireAttempt(r txnReq, span uint64) (delta int64, err error) {
	s := &stmtRunner{c: c, span: span}
	if _, err := s.exec("BEGIN"); err != nil {
		return 0, err
	}
	delta, err = c.wireBody(s, r)
	if err != nil {
		if s.inTx {
			if _, rerr := s.exec("ROLLBACK"); rerr != nil {
				return 0, rerr
			}
		}
		return 0, err
	}
	if _, err := s.exec("COMMIT"); err != nil {
		return 0, err
	}
	return delta, nil
}

func (c *client) wireBody(s *stmtRunner, r txnReq) (int64, error) {
	x, err := s.lookup(r.c1)
	if err != nil {
		return 0, err
	}
	switch r.typ {
	case smallbank.Balance:
		if _, err := s.balance("Saving", x); err != nil {
			return 0, err
		}
		_, err := s.balance("Checking", x)
		return 0, err
	case smallbank.DepositChecking:
		_, err := s.exec(fmt.Sprintf("UPDATE Checking SET Balance = Balance + %d WHERE CustomerId = %d", r.v, x))
		return r.v, err
	case smallbank.TransactSaving:
		bal, err := s.balance("Saving", x)
		if err != nil {
			return 0, err
		}
		if bal+r.v < 0 {
			return 0, errAppRollback
		}
		_, err = s.exec(fmt.Sprintf("UPDATE Saving SET Balance = Balance %s WHERE CustomerId = %d", signed(r.v), x))
		return r.v, err
	case smallbank.Amalgamate:
		y, err := s.lookup(r.c2)
		if err != nil {
			return 0, err
		}
		sav, err := s.balance("Saving", x)
		if err != nil {
			return 0, err
		}
		chk, err := s.balance("Checking", x)
		if err != nil {
			return 0, err
		}
		for _, q := range []string{
			fmt.Sprintf("UPDATE Saving SET Balance = 0 WHERE CustomerId = %d", x),
			fmt.Sprintf("UPDATE Checking SET Balance = 0 WHERE CustomerId = %d", x),
			fmt.Sprintf("UPDATE Checking SET Balance = Balance %s WHERE CustomerId = %d", signed(sav+chk), y),
		} {
			if _, err := s.exec(q); err != nil {
				return 0, err
			}
		}
		return 0, nil
	case smallbank.WriteCheck:
		sav, err := s.balance("Saving", x)
		if err != nil {
			return 0, err
		}
		chk, err := s.balance("Checking", x)
		if err != nil {
			return 0, err
		}
		amount := r.v
		if sav+chk < r.v {
			amount++ // the overdraft penalty
		}
		_, err = s.exec(fmt.Sprintf("UPDATE Checking SET Balance = Balance - %d WHERE CustomerId = %d", amount, x))
		return -amount, err
	}
	return 0, fmt.Errorf("unknown transaction type %v", r.typ)
}

// signed renders "+ v" or "- |v|" for an UPDATE's SET expression.
func signed(v int64) string {
	if v < 0 {
		return fmt.Sprintf("- %d", -v)
	}
	return fmt.Sprintf("+ %d", v)
}

// stmtRunner sends one attempt's statements and tracks whether the
// server session still holds the transaction open.
type stmtRunner struct {
	c    *client
	span uint64
	inTx bool
}

func (s *stmtRunner) exec(q string) (server.Response, error) {
	var t time.Time
	if s.c.sp != nil {
		t = time.Now()
	}
	resp, err := s.c.tp.roundTrip(q, s.span)
	if s.c.sp != nil {
		s.c.sp.add(s.span, spanRTT, t)
	}
	if err != nil {
		s.inTx = false
		return resp, fmt.Errorf("%w: %v", errTransport, err)
	}
	s.inTx = resp.InTx
	if resp.Err != "" {
		return resp, &stmtError{resp: resp}
	}
	return resp, nil
}

// query runs a single-row, single-column SELECT and returns the value.
func (s *stmtRunner) query(q string) (int64, error) {
	resp, err := s.exec(q)
	if err != nil {
		return 0, err
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 {
		return 0, fmt.Errorf("%q returned %d rows", q, len(resp.Rows))
	}
	v, ok := resp.Rows[0][0].(float64)
	if !ok {
		return 0, fmt.Errorf("%q returned %T, want a number", q, resp.Rows[0][0])
	}
	return int64(v), nil
}

func (s *stmtRunner) lookup(i int) (int64, error) {
	return s.query(fmt.Sprintf("SELECT CustomerId FROM Account WHERE Name = '%s'", smallbank.CustomerName(i)))
}

func (s *stmtRunner) balance(table string, x int64) (int64, error) {
	return s.query(fmt.Sprintf("SELECT Balance FROM %s WHERE CustomerId = %d", table, x))
}
