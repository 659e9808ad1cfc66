package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"sicost/internal/smallbank"
)

// small is a run small enough for a unit test: a few hundred
// customers, a single set-up, fractions of a second of load.
func small(t *testing.T, workload string) options {
	t.Helper()
	return options{
		spec:      workloads[workload],
		seed:      7,
		measure:   300 * time.Millisecond,
		warmup:    50 * time.Millisecond,
		customers: 300,
		setups:    1,
		dir:       t.TempDir(),
		spans:     filepath.Join(t.TempDir(), "spans.tsv"),
	}
}

// loaded assembles o's node and runs its clients briefly.
func loaded(t *testing.T, o options) (*node, *tally) {
	t.Helper()
	n, err := assemble(o, filepath.Join(o.dir, "node"), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := measure(n, newClients(o, n, nil, false), 0, o.measure, false)
	if p.tally.commits == 0 || p.tally.runFailed != 0 {
		t.Fatalf("run: %d commits, %d failed (%v)", p.tally.commits, p.tally.runFailed, p.tally.firstErr)
	}
	return n, p.tally
}

func TestGatePassesAndLedgerRejectsDoctoredDelta(t *testing.T) {
	for _, w := range []string{"wire-mix", "engine-hotspot"} {
		t.Run(w, func(t *testing.T) {
			o := small(t, w)
			n, tl := loaded(t, o)
			if tl.ledger == 0 {
				t.Fatal("the run moved no money; the ledger check proves nothing")
			}
			total, err := smallbank.TotalMoney(n.db)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkLedger(n.loaded, tl.ledger, total); err != nil {
				t.Fatalf("honest ledger rejected: %v", err)
			}
			if err := checkLedger(n.loaded, tl.ledger+1, total); err == nil {
				t.Fatal("ledger check accepted a delta off by one cent")
			}
			if _, err := verify(n, tl.ledger); err != nil {
				t.Fatalf("gate failed on a correct run: %v", err)
			}
		})
	}
}

func TestGateRejectsDoctoredLedger(t *testing.T) {
	o := small(t, "wire-mix")
	n, tl := loaded(t, o)
	defer n.abandon()
	_, err := verify(n, tl.ledger-1)
	if err == nil || !strings.Contains(err.Error(), "money not conserved") {
		t.Fatalf("verify with a doctored ledger: %v, want a conservation failure", err)
	}
}

func TestRecoveryCheckRejectsMissingRow(t *testing.T) {
	o := small(t, "engine-hotspot")
	n, _ := loaded(t, o)
	defer n.abandon()
	want, err := captureState(n.db)
	if err != nil {
		t.Fatal(err)
	}
	got := state{}
	for k, v := range want {
		got[k] = v
	}
	if err := checkRecovered(want, got); err != nil {
		t.Fatalf("identical images rejected: %v", err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	delete(got, keys[len(keys)/2])
	if err := checkRecovered(want, got); err == nil || !strings.Contains(err.Error(), "missing after recovery") {
		t.Fatalf("image missing one row: %v, want a missing-row failure", err)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark defines %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
		names = append(names, m.Name)
	}
	if setupBound <= maxOther {
		t.Errorf("setup_s bound %v must be the largest (others up to %v)", setupBound, maxOther)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark defines %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		names = append(names, m.Name)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
}

// TestPrintedMetricNamesMatchBenchmarkJSON runs every workload, timed
// and traced, and checks the result line against BENCHMARK.json.
func TestPrintedMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range bj.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bj.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			if code := report(small(t, w.Name), traced, &stdout, &stderr); code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", w.Name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			exp := append([]string(nil), want[traced]...)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s traced=%v prints %v, BENCHMARK.json names %v", w.Name, traced, got, exp)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}
