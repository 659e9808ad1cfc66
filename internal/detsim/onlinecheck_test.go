package detsim

import (
	"math/rand"
	"strings"
	"testing"

	"sicost/internal/core"
	"sicost/internal/histories"
	"sicost/internal/onlinecheck"
)

// onlineConfigs are the mode/platform combinations the online checker
// is explored under.
var onlineConfigs = []struct {
	mode     core.CCMode
	platform core.Platform
}{
	{core.SnapshotFUW, core.PlatformPostgres},
	{core.SnapshotFUW, core.PlatformCommercial},
	{core.SerializableSI, core.PlatformPostgres},
	{core.Strict2PL, core.PlatformPostgres},
}

// TestOnlineMatchesOfflineOnPaperSchedules runs every history script of
// the paper under every mode/platform and requires three verdicts to be
// equal: the runner's report, a post-hoc single-pass replay of the same
// recorded stream (the exact mode), a replay that retires the window
// after every event (the tightest window discipline), and the
// brute-force oracle over the rebuilt history.
func TestOnlineMatchesOfflineOnPaperSchedules(t *testing.T) {
	nonSer := 0
	for _, cfg := range onlineConfigs {
		for _, s := range histories.PaperSchedules() {
			r, err := Runner{Mode: cfg.mode, Platform: cfg.platform, Items: s.Items}.Run(s.Script)
			if err != nil {
				// Some scripts are not dispatchable under every mode: a
				// step of a transaction 2PL left blocked cannot be
				// scheduled. That is a property of the schedule, not a
				// checker divergence.
				if strings.Contains(err.Error(), "blocked") {
					continue
				}
				t.Fatalf("%s under %s/%s: %v", s.Name, cfg.mode, cfg.platform, err)
			}
			if r.Report == nil {
				t.Fatalf("%s under %s/%s: no online report", s.Name, cfg.mode, cfg.platform)
			}
			siRules := cfg.mode != core.Strict2PL
			exact := onlinecheck.Run(r.Events, onlinecheck.Config{SIRules: siRules, Batch: len(r.Events) + 1})
			tight := onlinecheck.Run(r.Events, onlinecheck.Config{SIRules: siRules, Batch: 1})
			oracle := SerializableBrute(r.History)
			if r.Report.Serializable != exact.Serializable ||
				tight.Serializable != exact.Serializable ||
				exact.Serializable != oracle {
				t.Fatalf("%s under %s/%s: runner=%v single-pass=%v per-event=%v oracle=%v\nrunner: %ssingle-pass: %sper-event: %s",
					s.Name, cfg.mode, cfg.platform,
					r.Report.Serializable, exact.Serializable, tight.Serializable, oracle,
					r.Report.Describe(), exact.Describe(), tight.Describe())
			}
			if !oracle {
				nonSer++
			}
		}
	}
	if nonSer == 0 {
		t.Fatal("no schedule produced a non-serializable execution; cross-validation is vacuous")
	}
}

// TestOnlineRandomCrossValidation replays random SI-shaped histories
// over a small, hot item set (dense conflicts, long cycles) through the
// online checker in a single pass and requires the brute-force
// serial-order search's verdict on every one. It complements
// TestCheckerCrossValidation, which fuzzes the default generator shape.
func TestOnlineRandomCrossValidation(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 1000
	}
	rng := rand.New(rand.NewSource(20080576))
	gen := HistoryGen{Items: 2, MaxOps: 4}
	nonSer := 0
	for i := 0; i < n; i++ {
		h := gen.Generate(rng)
		evs := eventsOf(h)
		rep := onlinecheck.Run(evs, onlinecheck.Config{SIRules: true, Batch: len(evs) + 1})
		oracle := SerializableBrute(h)
		if rep.Serializable != oracle {
			t.Fatalf("divergence on history %d: online=%v oracle=%v\nhistory:\n%s\nonline report:\n%s",
				i, rep.Serializable, oracle, FormatHistory(h), rep.Describe())
		}
		if !oracle {
			nonSer++
		}
	}
	if nonSer == 0 || nonSer == n {
		t.Fatalf("degenerate corpus: %d/%d non-serializable", nonSer, n)
	}
	t.Logf("cross-validated %d random histories (%d non-serializable), zero divergence", n, nonSer)
}

// TestOnlineGoldenWriteSkew pins the online checker's structured
// violation report for the paper's write-skew schedule under plain SI:
// the cycle participants, the rw-edge chain, and the classification.
func TestOnlineGoldenWriteSkew(t *testing.T) {
	s := histories.WriteSkew
	r, err := Runner{Mode: core.SnapshotFUW, Items: s.Items}.Run(s.Script)
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.Serializable {
		t.Fatalf("write skew not detected:\n%s", r.Report.Describe())
	}
	want := `online-checked 2 transactions, 2 edges, window peak 2 (0 retired): NOT serializable (1 cycle(s), 0 SI-rule violation(s))
  cycle (write skew): t3(t2) --rw[H."x"]--> t2(t1) --rw[H."y"]--> t3(t2) [window 2, csn 2..3, watermark 0]
`
	if got := r.Report.Describe(); got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestOnlineGoldenReadOnlyAnomaly pins the report for the read-only
// anomaly: a three-transaction cycle through a read-only participant.
func TestOnlineGoldenReadOnlyAnomaly(t *testing.T) {
	s := histories.ReadOnlyAnomaly
	r, err := Runner{Mode: core.SnapshotFUW, Items: s.Items}.Run(s.Script)
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.Serializable {
		t.Fatalf("read-only anomaly not detected:\n%s", r.Report.Describe())
	}
	got := r.Report.Describe()
	if !strings.Contains(got, "read-only anomaly") {
		t.Fatalf("cycle not classified as read-only anomaly:\n%s", got)
	}
	v := r.Report.Violations[0]
	if len(v.Txs) != 4 || v.Txs[0] != v.Txs[3] {
		t.Fatalf("want a closed 3-transaction cycle, got txs %v", v.Txs)
	}
	if len(v.Edges) != 3 {
		t.Fatalf("want a 3-edge witness chain, got %v", v.Edges)
	}
}

// TestOnlineExploreCrossValidation exhaustively explores small
// transaction sets under every mode: Explore itself errors out on any
// interleaving where the online checker's verdict diverges from the
// brute-force oracle's.
func TestOnlineExploreCrossValidation(t *testing.T) {
	sets := [][]string{
		// The write-skew pair.
		{"r(x) r(y) w(x,-10)", "r(x) r(y) w(y,-10)"},
		// Promotion via SFU (platform-sensitive).
		{"u(x) r(y) w(x,-10)", "r(x) r(y) w(y,-10)"},
	}
	for _, cfg := range onlineConfigs {
		for i, txns := range sets {
			res, err := Explore(ExploreConfig{
				Mode: cfg.mode, Platform: cfg.platform,
				Txns: txns,
			})
			if err != nil {
				t.Fatalf("set %d under %s/%s: %v", i, cfg.mode, cfg.platform, err)
			}
			if res.Schedules == 0 {
				t.Fatalf("set %d under %s/%s explored nothing", i, cfg.mode, cfg.platform)
			}
		}
	}
	// Sanity: plain SI on the write-skew pair must actually reach a
	// non-serializable outcome, or the agreement above proves nothing.
	res, err := Explore(ExploreConfig{Mode: core.SnapshotFUW, Txns: sets[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Serializable() {
		t.Fatal("SI exploration of the write-skew pair found no anomaly")
	}
}

// TestOnlineRunnerStrict2PLDisablesSIRules: under 2PL the runner must
// run the online checker without SI rules — 2PL reads newest-committed,
// which would otherwise spray future-read false positives.
func TestOnlineRunnerStrict2PLDisablesSIRules(t *testing.T) {
	s := histories.WriteSkew
	r, err := Runner{Mode: core.Strict2PL, Items: s.Items}.Run(s.Script)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Report.Serializable {
		t.Fatalf("2PL execution flagged non-serializable:\n%s", r.Report.Describe())
	}
	if r.Report.SIViolations != 0 {
		t.Fatalf("2PL execution flagged SI violations:\n%s", r.Report.Describe())
	}
}
