package node

import (
	"encoding/json"
	"expvar"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/onlinecheck"
	"sicost/internal/server"
	"sicost/internal/simres"
	"sicost/internal/smallbank"
)

// rowImages renders every SmallBank row the database holds, table by
// table in key order.
func rowImages(t *testing.T, db *engine.DB) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, table := range []string{smallbank.TableAccount, smallbank.TableSaving, smallbank.TableChecking, smallbank.TableConflict} {
		if err := db.ScanLatest(table, func(k core.Value, r core.Record) bool {
			out[table] = append(out[table], fmt.Sprint(k, r))
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestOpenLoadsThenRecovers: the first Open of an empty segment log
// loads; after a close the second Open of the same log recovers, with
// the customer count taken from Account (not from Options) and the same
// row images as the loaded database.
func TestOpenLoadsThenRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg, err := Config("postgres", "ssi", 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Open(Options{Engine: cfg, Dir: dir, Customers: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.Recovered != nil || first.Customers != 40 {
		t.Fatalf("first open: recovered %v, %d customers; want a load of 40", first.Recovered, first.Customers)
	}
	loaded := rowImages(t, first.DB)
	first.Close()

	var progress strings.Builder
	second, err := Open(Options{Engine: cfg, Dir: dir, Customers: 7, Seed: 99, Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if second.Recovered == nil {
		t.Fatal("second open of a non-empty log loaded instead of recovering")
	}
	if second.Customers != 40 {
		t.Fatalf("recovered %d customers, want the 40 the log holds", second.Customers)
	}
	if !strings.Contains(progress.String(), "recovered ") || !strings.Contains(progress.String(), " 40 customers") {
		t.Fatalf("progress line = %q", progress.String())
	}
	recovered := rowImages(t, second.DB)
	for table, rows := range loaded {
		if len(rows) != len(recovered[table]) {
			t.Fatalf("%s: %d rows loaded, %d recovered", table, len(rows), len(recovered[table]))
		}
		for i := range rows {
			if rows[i] != recovered[table][i] {
				t.Fatalf("%s row %d: loaded %s, recovered %s", table, i, rows[i], recovered[table][i])
			}
		}
	}
}

// TestPublishRendersDocumentedVars: after Publish, every sicost_* name
// the docs mention is registered and renders as valid JSON.
func TestPublishRendersDocumentedVars(t *testing.T) {
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs found: %v", err)
	}
	names := map[string]bool{}
	for _, path := range docs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range regexp.MustCompile(`sicost_[a-z_]+`).FindAllString(string(b), -1) {
			names[name] = true
		}
	}

	cfg, err := Config("postgres", "si", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Admission = &admission.Config{}
	n, err := Open(Options{Engine: cfg, Customers: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	srv := server.New(server.Config{DB: n.DB})
	chk := onlinecheck.New(onlinecheck.Config{SIRules: true})
	n.Publish(map[string]func() any{
		"sicost_server":      func() any { return srv.Stats() },
		"sicost_onlinecheck": func() any { return chk.Stats() },
	})
	for name := range names {
		v := expvar.Get(name)
		if v == nil {
			t.Errorf("docs list %s, which Publish did not register", name)
			continue
		}
		if !json.Valid([]byte(v.String())) {
			t.Errorf("%s renders invalid JSON: %.200s", name, v.String())
		}
	}
}

// TestScaleZeroModelsNoFsync: at scale 0 — the measured costs sisqld
// and sisql serve — no platform and mode models an fsync or charges
// modelled CPU (simres or CostModel); at scale 1 both are modelled.
func TestScaleZeroModelsNoFsync(t *testing.T) {
	charged := func(cfg engine.Config) time.Duration {
		m := simres.New(cfg.Res)
		m.EnterSession()
		m.UseCPU(m.TxnCost(5) + cfg.Cost.MaterializeWrite + cfg.Cost.PromoteUpdate + cfg.Cost.SelectForUpdate)
		return m.CPUBusy()
	}
	for _, platform := range []string{"postgres", "commercial"} {
		for _, mode := range []string{"si", "2pl", "ssi"} {
			cfg, err := Config(platform, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.WAL.FsyncLatency != 0 {
				t.Errorf("%s/%s: scale 0 models a %v fsync", platform, mode, cfg.WAL.FsyncLatency)
			}
			if d := charged(cfg); d != 0 {
				t.Errorf("%s/%s: scale 0 charges %v of modelled CPU", platform, mode, d)
			}
			modelled, _ := Config(platform, mode, 1)
			if modelled.WAL.FsyncLatency == 0 || charged(modelled) == 0 {
				t.Errorf("%s/%s: scale 1 models no fsync or no CPU", platform, mode)
			}
		}
	}
	if _, err := Config("oracle", "si", 0); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := Config("postgres", "rc", 0); err == nil {
		t.Error("unknown mode accepted")
	}
	if Costs(0) != "costs: measured" || !strings.HasPrefix(Costs(1), "costs: modelled (scale 1:") {
		t.Errorf("cost labels: %q, %q", Costs(0), Costs(1))
	}
}
