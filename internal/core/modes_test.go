package core

import "testing"

// TestParseModeAndPlatform pins the command-line spellings every binary
// accepts: exactly si, 2pl, ssi and postgres, commercial; anything else
// (other case, the String names of modes, other products) is rejected.
func TestParseModeAndPlatform(t *testing.T) {
	modes := []struct {
		in   string
		want CCMode
		ok   bool
	}{
		{"si", SnapshotFUW, true},
		{"2pl", Strict2PL, true},
		{"ssi", SerializableSI, true},
		{"si-fuw", 0, false},
		{"SI", 0, false},
		{"rc", 0, false},
		{"serializable", 0, false},
		{"", 0, false},
	}
	for _, c := range modes {
		got, err := ParseMode(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseMode(%q) accepted as %v", c.in, got)
		}
	}
	platforms := []struct {
		in   string
		want Platform
		ok   bool
	}{
		{"postgres", PlatformPostgres, true},
		{"commercial", PlatformCommercial, true},
		{"oracle", 0, false},
		{"Postgres", 0, false},
		{"postgresql", 0, false},
		{"", 0, false},
	}
	for _, c := range platforms {
		got, err := ParsePlatform(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePlatform(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePlatform(%q) accepted as %v", c.in, got)
		}
	}
}
