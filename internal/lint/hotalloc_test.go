package lint

import "testing"

func TestHotAllocFixture(t *testing.T) {
	RunFixture(t, HotAlloc, ".", "hotalloc")
}

// The callgraph fixture is split across two packages: callgraph/b is loaded
// facts-only, and callgraph/a's // want expectations include diagnostics
// whose witnesses could only have arrived through b's exported facts.
func TestCallGraphHotAllocFixture(t *testing.T) {
	RunFixture(t, HotAlloc, ".", "callgraph/a")
}

// The implicit fixture models the implicit-topology streaming engine's hot
// shard loops: field-backed scatter reuse and capacity probes must stay
// clean, while fresh-slice growth and unsanctioned lazy map materialization
// reached from a hot root are diagnosed with reachability witnesses.
func TestCallGraphHotAllocImplicitFixture(t *testing.T) {
	RunFixture(t, HotAlloc, ".", "implicit")
}

// TestHotAllocMatch pins that hotalloc has no package scope: hot roots live
// in cmd/ftserve, internal/obsv and internal/core as well as in the engine
// packages, and each root's own body is checked wherever it is.
func TestHotAllocMatch(t *testing.T) {
	if HotAlloc.Match != nil {
		t.Fatal("hotalloc must run on every package: hot roots may live anywhere")
	}
}

func TestCallGraphHotAllocNeedsFacts(t *testing.T) {
	if !HotAlloc.NeedsFacts {
		t.Fatal("hotalloc must declare NeedsFacts so allocation witnesses cross package boundaries")
	}
}
