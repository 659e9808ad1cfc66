package main

import "testing"

// TestServedConfigModelsNoFsync: sisqld attaches no log device, so the
// engine it serves must not sleep a modelled fsync on every updating
// commit (nor charge modelled CPU) — on every platform and mode.
func TestServedConfigModelsNoFsync(t *testing.T) {
	for _, platform := range []string{"postgres", "commercial"} {
		for _, mode := range []string{"si", "2pl", "ssi"} {
			cfg, err := servedConfig(platform, mode)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.WAL.FsyncLatency != 0 {
				t.Errorf("%s/%s: served engine models a %v fsync with no log device", platform, mode, cfg.WAL.FsyncLatency)
			}
			if cfg.Res.VirtualCPUs != 0 {
				t.Errorf("%s/%s: served engine models %d virtual CPUs", platform, mode, cfg.Res.VirtualCPUs)
			}
		}
	}
	if _, err := servedConfig("oracle", "si"); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := servedConfig("postgres", "rc"); err == nil {
		t.Error("unknown mode accepted")
	}
}
