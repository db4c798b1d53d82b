package core

import (
	"fmt"
	"reflect"
	"testing"
)

// karyRef is an explicitly materialized reference tree: every pointer and
// capacity is stored per node, built by breadth-first expansion from the root
// with none of FatTree's level-order index arithmetic. Queries are
// answered by walking pointers, so agreement with the arithmetic
// implementation on every node and every leaf pair is a genuine check.
type karyRef struct {
	n          int
	levels     int
	parent     []int // parent[v], 0 for the root
	level      []int // level[v]
	childFirst []int // childFirst[v], 0 for leaves
	childCount []int
	cap        []int // cap[v] = capacity of the channel above v
}

func buildKaryRef(desc KaryDesc) *karyRef {
	tiers := len(desc.Down)
	nodes := 0
	count := 1
	for k := 0; k <= tiers; k++ {
		nodes += count
		if k < tiers {
			count *= desc.Down[k]
		}
	}
	r := &karyRef{
		n:          count,
		levels:     tiers,
		parent:     make([]int, nodes+1),
		level:      make([]int, nodes+1),
		childFirst: make([]int, nodes+1),
		childCount: make([]int, nodes+1),
		cap:        make([]int, nodes+1),
	}
	// BFS expansion: the queue holds nodes whose children are unassigned; the
	// next free index is handed out in queue order.
	queue := []int{1}
	next := 2
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		k := r.level[v]
		if k == tiers {
			continue
		}
		r.childFirst[v] = next
		r.childCount[v] = desc.Down[k]
		for i := 0; i < desc.Down[k]; i++ {
			c := next
			next++
			r.parent[c] = v
			r.level[c] = k + 1
			queue = append(queue, c)
		}
	}
	rootCap := desc.Root
	if rootCap == 0 {
		rootCap = desc.Up[0] * desc.Parallel[0]
	}
	for v := 1; v <= nodes; v++ {
		if r.level[v] == 0 {
			r.cap[v] = rootCap
		} else {
			r.cap[v] = desc.Up[r.level[v]-1] * desc.Parallel[r.level[v]-1]
		}
	}
	return r
}

// leaf returns the node index of processor p by scanning for the p-th
// leaf-level node.
func (r *karyRef) leaf(p int) int {
	for v := 1; v < len(r.level); v++ {
		if r.level[v] == r.levels {
			if p == 0 {
				return v
			}
			p--
		}
	}
	panic("karyRef: leaf out of range")
}

// lca walks both leaves up by pointer until the paths meet.
func (r *karyRef) lca(p, q int) int {
	a, b := r.leaf(p), r.leaf(q)
	for a != b {
		a, b = r.parent[a], r.parent[b]
	}
	return a
}

// leaves collects the processor numbers under v by pointer-walking the
// subtree.
func (r *karyRef) leaves(v int) []int {
	if r.level[v] == r.levels {
		for p := 0; p < r.n; p++ {
			if r.leaf(p) == v {
				return []int{p}
			}
		}
		panic("karyRef: unreachable leaf")
	}
	var out []int
	for c := r.childFirst[v]; c < r.childFirst[v]+r.childCount[v]; c++ {
		out = append(out, r.leaves(c)...)
	}
	return out
}

func (r *karyRef) totalWires() int {
	total := 0
	for v := 1; v < len(r.cap); v++ {
		total += 2 * r.cap[v]
	}
	return total
}

// karyProfiles are the non-binary descriptor shapes the parity tests sweep:
// a 2-tier oversubscribed pod, a mixed-arity 3-tier, and a square 2-tier with
// parallel trunks and an explicit root capacity.
var karyProfiles = []KaryDesc{
	{Down: []int{3, 4}, Up: []int{2, 1}, Parallel: []int{1, 1}},
	{Down: []int{4, 2, 3}, Up: []int{3, 2, 1}, Parallel: []int{1, 1, 1}},
	{Down: []int{5, 5}, Up: []int{2, 1}, Parallel: []int{3, 2}, Root: 7},
}

// TestKaryQueryParity checks every navigation, capacity, and path query of
// a non-binary FatTree against the pointer-walking reference on every node
// and every leaf pair, for each non-binary profile.
func TestKaryQueryParity(t *testing.T) {
	for _, desc := range karyProfiles {
		desc := desc
		t.Run(fmt.Sprintf("down=%v", desc.Down), func(t *testing.T) {
			kt := NewKary(desc)
			ref := buildKaryRef(desc)

			if kt.Nodes() != len(ref.level)-1 {
				t.Fatalf("Nodes() = %d, reference has %d", kt.Nodes(), len(ref.level)-1)
			}
			if kt.Processors() != ref.n || kt.Levels() != ref.levels {
				t.Fatalf("shape (n=%d, levels=%d), reference (n=%d, levels=%d)",
					kt.Processors(), kt.Levels(), ref.n, ref.levels)
			}
			if kt.InternalNodes() != kt.Nodes()-ref.n {
				t.Fatalf("InternalNodes() = %d, want %d", kt.InternalNodes(), kt.Nodes()-ref.n)
			}

			// Per-node queries.
			levelSeen := make(map[int]int)
			for v := 1; v <= kt.Nodes(); v++ {
				if got, want := kt.Level(v), ref.level[v]; got != want {
					t.Fatalf("Level(%d) = %d, want %d", v, got, want)
				}
				levelSeen[ref.level[v]]++
				if got, want := kt.Parent(v), ref.parent[v]; got != want {
					t.Fatalf("Parent(%d) = %d, want %d", v, got, want)
				}
				f, c := kt.Children(v)
				if f != ref.childFirst[v] || c != ref.childCount[v] {
					t.Fatalf("Children(%d) = (%d,%d), want (%d,%d)", v, f, c, ref.childFirst[v], ref.childCount[v])
				}
				if got, want := kt.CapAt(v), ref.cap[v]; got != want {
					t.Fatalf("CapAt(%d) = %d, want %d", v, got, want)
				}
				if got, want := kt.Capacity(Channel{Node: v, Dir: Up}), ref.cap[v]; got != want {
					t.Fatalf("Capacity(%d) = %d, want %d", v, got, want)
				}
				lo, hi := kt.SubtreeLeaves(v)
				leaves := ref.leaves(v)
				if lo != leaves[0] || hi != leaves[len(leaves)-1]+1 || hi-lo != len(leaves) {
					t.Fatalf("SubtreeLeaves(%d) = [%d,%d), reference leaves %v", v, lo, hi, leaves)
				}
				for p := 0; p < ref.n; p++ {
					if got, want := kt.Contains(v, p), p >= leaves[0] && p <= leaves[len(leaves)-1]; got != want {
						t.Fatalf("Contains(%d, %d) = %v, want %v", v, p, got, want)
					}
				}
			}
			for k := 0; k <= ref.levels; k++ {
				_, c := kt.LevelRange(k)
				if c != levelSeen[k] {
					t.Fatalf("LevelRange(%d) count = %d, reference counted %d", k, c, levelSeen[k])
				}
			}

			// Per-leaf and per-pair queries.
			for p := 0; p < ref.n; p++ {
				if got, want := kt.Leaf(p), ref.leaf(p); got != want {
					t.Fatalf("Leaf(%d) = %d, want %d", p, got, want)
				}
				if got := kt.ProcessorOf(kt.Leaf(p)); got != p {
					t.Fatalf("ProcessorOf(Leaf(%d)) = %d", p, got)
				}
				for q := 0; q < ref.n; q++ {
					m := Message{Src: p, Dst: q}
					lca := ref.lca(p, q)
					if got := kt.LCA(p, q); got != lca {
						t.Fatalf("LCA(%d,%d) = %d, want %d", p, q, got, lca)
					}
					if got, want := kt.PathLength(m), 2*(ref.levels-ref.level[lca]); got != want {
						t.Fatalf("PathLength(%d->%d) = %d, want %d", p, q, got, want)
					}
					// The path must climb by parent pointers to the LCA and
					// descend to the destination.
					path := kt.Path(m, nil)
					var want []Channel
					for v := ref.leaf(p); v != lca; v = ref.parent[v] {
						want = append(want, Channel{Node: v, Dir: Up})
					}
					var down []Channel
					for v := ref.leaf(q); v != lca; v = ref.parent[v] {
						down = append(down, Channel{Node: v, Dir: Down})
					}
					for i := len(down) - 1; i >= 0; i-- {
						want = append(want, down[i])
					}
					if !reflect.DeepEqual(path, want) {
						t.Fatalf("Path(%d->%d) = %v, want %v", p, q, path, want)
					}
				}
			}

			if got, want := kt.TotalWires(), ref.totalWires(); got != want {
				t.Fatalf("TotalWires() = %d, want %d", got, want)
			}

			// Overrides flow through CapAt, Capacity, and TotalWires exactly
			// as in the reference.
			kt.SetChannelCapacity(1, 9)
			kt.SetChannelCapacity(kt.Leaf(0), 5)
			ref.cap[1] = 9
			ref.cap[ref.leaf(0)] = 5
			for v := 1; v <= kt.Nodes(); v++ {
				if got, want := kt.CapAt(v), ref.cap[v]; got != want {
					t.Fatalf("after override: CapAt(%d) = %d, want %d", v, got, want)
				}
			}
			if got, want := kt.TotalWires(), ref.totalWires(); got != want {
				t.Fatalf("after override: TotalWires() = %d, want %d", got, want)
			}
		})
	}
}

// TestKaryValidation pins the constructor panics and the validate-before-
// mutate contract of SetChannelCapacity and FailNode.
func TestKaryValidation(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", name)
				}
				if msg, ok := r.(string); !ok || msg != want {
					t.Fatalf("%s: panic %q, want %q", name, r, want)
				}
			}()
			fn()
		})
	}

	mustPanic("empty descriptor", "core: k-ary descriptor needs at least one tier",
		func() { NewKary(KaryDesc{}) })
	mustPanic("tier count mismatch", "core: k-ary descriptor tier counts disagree: down=2 up=1 parallel=2",
		func() { NewKary(KaryDesc{Down: []int{2, 2}, Up: []int{1}, Parallel: []int{1, 1}}) })
	mustPanic("arity below 2", "core: k-ary down[1] = 1; every tier needs >= 2 children",
		func() { NewKary(KaryDesc{Down: []int{2, 1}, Up: []int{1, 1}, Parallel: []int{1, 1}}) })
	mustPanic("uplinks below 1", "core: k-ary up[0] = 0; must be >= 1",
		func() { NewKary(KaryDesc{Down: []int{2}, Up: []int{0}, Parallel: []int{1}}) })
	mustPanic("parallel below 1", "core: k-ary parallel[0] = -1; must be >= 1",
		func() { NewKary(KaryDesc{Down: []int{2}, Up: []int{1}, Parallel: []int{-1}}) })
	mustPanic("negative root", "core: k-ary root capacity -3 must be >= 0 (0 selects the default)",
		func() { NewKary(KaryDesc{Down: []int{2}, Up: []int{1}, Parallel: []int{1}, Root: -3}) })

	kt := NewKary(karyProfiles[0])
	mustPanic("SetChannelCapacity bad cap", "core: capacity 0 must be >= 1",
		func() { kt.SetChannelCapacity(1, 0) })
	mustPanic("SetChannelCapacity bad node", fmt.Sprintf("core: node %d out of range [1,%d)", kt.Nodes()+1, kt.Nodes()+1),
		func() { kt.SetChannelCapacity(kt.Nodes()+1, 4) })
	mustPanic("FailNode bad node", fmt.Sprintf("core: FailNode: node 0 out of range [1,%d)", kt.Nodes()+1),
		func() { FailNode(kt, 0) })
	// The failed validations must not have left a partial override behind.
	kt.Overrides(func(node, cap int) {
		t.Fatalf("rejected mutation left override (%d -> %d)", node, cap)
	})

	// FailNode on a valid switch collapses its edge and its children's edges
	// to single wires, and nothing else.
	FailNode(kt, 1)
	if kt.CapAt(1) != 1 {
		t.Fatalf("FailNode(1): root channel cap %d, want 1", kt.CapAt(1))
	}
	first, count := kt.Children(1)
	for c := first; c < first+count; c++ {
		if kt.CapAt(c) != 1 {
			t.Fatalf("FailNode(1): child %d cap %d, want 1", c, kt.CapAt(c))
		}
	}
}
