package lint

import "testing"

// The goroshutdown fixture imports goroshutdown/dep, whose shutdown bits
// arrive through exported facts (RunFixture bypasses Match, as fixtures
// choose their analyzer explicitly).
func TestGoroShutdownFixture(t *testing.T) {
	RunFixture(t, GoroShutdown, ".", "goroshutdown")
}

func TestGoroShutdownMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"fattree/cmd/ftserve":    true,
		"fattree/internal/sim":   false,
		"fattree/internal/sched": false,
		"fattree/cmd/ftsim":      false,
		"fattree":                false,
	} {
		if got := GoroShutdown.Match(path); got != want {
			t.Errorf("GoroShutdown.Match(%q) = %v, want %v", path, got, want)
		}
	}
}
