package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"
)

// heapPath is the oracle for Path on a binary tree of n leaves: climb from
// leaf n+src by v>>1 to the xor LCA, then descend to leaf n+dst.
func heapPath(n int, m Message, buf []Channel) []Channel {
	a, b := n+m.Src, n+m.Dst
	lca := a >> uint(bits.Len(uint(a^b)))
	for v := a; v != lca; v >>= 1 {
		buf = append(buf, Channel{Node: v, Dir: Up})
	}
	start := len(buf)
	for v := b; v != lca; v >>= 1 {
		buf = append(buf, Channel{Node: v, Dir: Down})
	}
	slices.Reverse(buf[start:])
	return buf
}

// heapExternalPath is the oracle for ExternalPath: every up channel from the
// source leaf through the root channel, or the reverse descent.
func heapExternalPath(n int, m Message, buf []Channel) []Channel {
	if m.Dst == External {
		for v := n + m.Src; v >= 1; v >>= 1 {
			buf = append(buf, Channel{Node: v, Dir: Up})
		}
		return buf
	}
	start := len(buf)
	for v := n + m.Dst; v >= 1; v >>= 1 {
		buf = append(buf, Channel{Node: v, Dir: Down})
	}
	slices.Reverse(buf[start:])
	return buf
}

// binaryDesc is the all-binary descriptor of a capacity profile.
func binaryDesc(caps []int) KaryDesc {
	levels := len(caps) - 1
	d := KaryDesc{Down: make([]int, levels), Up: make([]int, levels), Parallel: make([]int, levels), Root: caps[0]}
	for i := 0; i < levels; i++ {
		d.Down[i], d.Up[i], d.Parallel[i] = 2, caps[i+1], 1
	}
	return d
}

// TestBinaryTreesMatchHeapFormulas pins every query of constructor-built
// binary trees against the heap formulas — Leaf n+p, Parent v>>1, Level
// bits.Len-1, Children (2v, 2), LevelRange [2^k, 2^(k+1)), LCA by xor, and
// the paths, subtree intervals and wire totals they imply — with and without
// capacity overrides. It also pins that NewKary on the binary descriptor
// builds exactly the tree the profile constructor does.
func TestBinaryTreesMatchHeapFormulas(t *testing.T) {
	for n := 2; n <= 1024; n *= 2 {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			lg := bits.Len(uint(n)) - 1
			trees := map[string]*FatTree{
				"universal":   NewUniversal(n, max(1, n/4)),
				"doubling":    NewDoubling(n),
				"constant":    NewConstant(n, 3),
				"universal2d": NewUniversal2D(n, max(1, n/2)),
			}
			for name, ft := range trees {
				if !HeapIndexed(ft) {
					t.Fatalf("%s: not heap-indexed", name)
				}
				if got := NewKary(binaryDesc(ft.LevelCapTable())); !reflect.DeepEqual(got, ft) {
					t.Fatalf("%s: NewKary on the binary descriptor\n%#v\nwant\n%#v", name, got, ft)
				}
				if ft.Processors() != n || ft.Levels() != lg || ft.Nodes() != 2*n-1 || ft.InternalNodes() != n-1 {
					t.Fatalf("%s: shape (n=%d, levels=%d, nodes=%d, internal=%d)",
						name, ft.Processors(), ft.Levels(), ft.Nodes(), ft.InternalNodes())
				}
				checkHeapCapacities(t, name, ft)
				ft.SetChannelCapacity(1, 5)
				ft.SetChannelCapacity(ft.Leaf(n-1), 2)
				ft.SetChannelCapacity(n/2+1, 7) // an internal node, or a leaf when n = 2
				checkHeapCapacities(t, name+"+overrides", ft)
			}
			checkHeapNavigation(t, trees["universal"])
		})
	}
}

// checkHeapCapacities compares the per-node capacity queries and TotalWires
// with a brute-force sum over heap levels.
func checkHeapCapacities(t *testing.T, name string, ft *FatTree) {
	t.Helper()
	caps := ft.LevelCapTable()
	ov := map[int]int{}
	ft.Overrides(func(node, cap int) { ov[node] = cap })
	total := 0
	for v := 1; v < 2*ft.Processors(); v++ {
		want := caps[bits.Len(uint(v))-1]
		if c, ok := ov[v]; ok {
			want = c
		}
		if got := ft.CapAt(v); got != want {
			t.Fatalf("%s: CapAt(%d) = %d, want %d", name, v, got, want)
		}
		if got := ft.Capacity(Channel{Node: v, Dir: Down}); got != want {
			t.Fatalf("%s: Capacity(down(%d)) = %d, want %d", name, v, got, want)
		}
		total += 2 * want
	}
	if got := ft.TotalWires(); got != total {
		t.Fatalf("%s: TotalWires() = %d, want %d", name, got, total)
	}
}

// checkHeapNavigation compares every node, level and leaf-pair query with
// its heap formula.
func checkHeapNavigation(t *testing.T, ft *FatTree) {
	t.Helper()
	n := ft.Processors()
	for k := 0; k <= ft.Levels(); k++ {
		if first, count := ft.LevelRange(k); first != 1<<k || count != 1<<k {
			t.Fatalf("LevelRange(%d) = (%d,%d), want (%d,%d)", k, first, count, 1<<k, 1<<k)
		}
	}
	for v := 1; v < 2*n; v++ {
		k := bits.Len(uint(v)) - 1
		if got := ft.Level(v); got != k {
			t.Fatalf("Level(%d) = %d, want %d", v, got, k)
		}
		if got := ft.Parent(v); got != v>>1 {
			t.Fatalf("Parent(%d) = %d, want %d", v, got, v>>1)
		}
		wantFirst, wantCount := 2*v, 2
		if v >= n {
			wantFirst, wantCount = 0, 0
		}
		if first, count := ft.Children(v); first != wantFirst || count != wantCount {
			t.Fatalf("Children(%d) = (%d,%d), want (%d,%d)", v, first, count, wantFirst, wantCount)
		}
		span := n >> k
		lo := (v - 1<<k) * span
		if gotLo, gotHi := ft.SubtreeLeaves(v); gotLo != lo || gotHi != lo+span {
			t.Fatalf("SubtreeLeaves(%d) = [%d,%d), want [%d,%d)", v, gotLo, gotHi, lo, lo+span)
		}
		for _, p := range []int{0, lo - 1, lo, lo + span - 1, lo + span, n - 1} {
			if p < 0 || p >= n {
				continue
			}
			if got, want := ft.Contains(v, p), p >= lo && p < lo+span; got != want {
				t.Fatalf("Contains(%d, %d) = %v, want %v", v, p, got, want)
			}
		}
	}
	var got, want []Channel
	for p := 0; p < n; p++ {
		if leaf := ft.Leaf(p); leaf != n+p {
			t.Fatalf("Leaf(%d) = %d, want %d", p, leaf, n+p)
		}
		for _, m := range []Message{{Src: p, Dst: External}, {Src: External, Dst: p}} {
			got, want = ft.ExternalPath(m, got[:0]), heapExternalPath(n, m, want[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("ExternalPath(%v) = %v, want %v", m, got, want)
			}
		}
		for q := 0; q < n; q++ {
			a, b := n+p, n+q
			if lca := a >> uint(bits.Len(uint(a^b))); ft.LCA(p, q) != lca {
				t.Fatalf("LCA(%d,%d) = %d, want %d", p, q, ft.LCA(p, q), lca)
			}
			if p == q {
				continue
			}
			m := Message{Src: p, Dst: q}
			got, want = ft.Path(m, got[:0]), heapPath(n, m, want[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("Path(%v) = %v, want %v", m, got, want)
			}
		}
	}
}
