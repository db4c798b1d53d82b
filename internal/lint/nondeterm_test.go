package lint

import "testing"

func TestNondetermFixture(t *testing.T) {
	RunFixture(t, Nondeterm, ".", "nondeterm")
}

func TestNondetermMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"fattree/internal/sim":         true,
		"fattree/internal/sched":       true,
		"fattree/internal/core":        true,
		"fattree/internal/metrics":     false,
		"fattree/internal/experiments": false,
		"fattree/cmd/ftsim":            false,
	} {
		if got := Nondeterm.Match(path); got != want {
			t.Errorf("Nondeterm.Match(%q) = %v, want %v", path, got, want)
		}
	}
}
