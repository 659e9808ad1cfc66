package node

import (
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/simres"
	"sicost/internal/wal"
)

// PostgresResources models the paper's PostgreSQL 8.2 server: a single
// CPU whose per-transaction service time sets the throughput plateau.
// Durations are ~4× faster than the paper's Pentium IV so a full sweep
// finishes in seconds; scale multiplies them to slow the hardware
// down.
func PostgresResources(scale float64) simres.Config {
	return simres.Config{
		VirtualCPUs: 1,
		TxnCPU:      300 * time.Microsecond,
		StmtCPU:     40 * time.Microsecond,
	}.Scaled(scale)
}

// CommercialResources models the commercial platform: higher base cost
// per transaction and a per-session overhead beyond ~20 active sessions,
// which produces the §IV-F peak-then-decline curve.
func CommercialResources(scale float64) simres.Config {
	return simres.Config{
		VirtualCPUs:      1,
		TxnCPU:           300 * time.Microsecond,
		StmtCPU:          50 * time.Microsecond,
		UpdaterCommitCPU: 400 * time.Microsecond,
		SessionKnee:      20,
		SessionOverhead:  55 * time.Microsecond,
	}.Scaled(scale)
}

// LogDevice is the simulated WAL disk: write cache disabled, group
// commit enabled (the paper's commit-delay setting).
func LogDevice(scale float64) wal.Config {
	return wal.Config{FsyncLatency: time.Duration(2500*scale) * time.Microsecond}
}

// PostgresDB assembles an engine configured as the PostgreSQL platform.
func PostgresDB(scale float64) engine.Config {
	return platformDB(core.PlatformPostgres, PostgresResources(scale), scale)
}

// CommercialDB assembles an engine configured as the commercial
// platform.
func CommercialDB(scale float64) engine.Config {
	return platformDB(core.PlatformCommercial, CommercialResources(scale), scale)
}

// platformDB runs platform p under SI on res, with the platform's cost
// model and the log device at scale.
func platformDB(p core.Platform, res simres.Config, scale float64) engine.Config {
	cost := engine.DefaultCostModel(p).Scaled(scale)
	return engine.Config{Mode: core.SnapshotFUW, Platform: p, Res: res, WAL: LogDevice(scale), Cost: &cost}
}
