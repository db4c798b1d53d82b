package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNilAndDefaultPools(t *testing.T) {
	t.Parallel()
	var nilPool *Pool
	if nilPool.Workers() != 1 {
		t.Errorf("nil pool workers = %d, want 1", nilPool.Workers())
	}
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Errorf("New(5).Workers() = %d, want 5", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		New(workers).ForEach(n, func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	t.Parallel()
	ran := 0
	New(4).ForEach(0, func(int) { ran++ })
	if ran != 0 {
		t.Errorf("ForEach(0) ran %d items", ran)
	}
	New(4).ForEach(1, func(i int) { ran += i + 1 })
	if ran != 1 {
		t.Errorf("ForEach(1) ran wrong item")
	}
}

func TestMapDeterministicOrder(t *testing.T) {
	t.Parallel()
	const n = 500
	want := Map(New(1), n, func(i int) int { return i * i })
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		got := Map(New(workers), n, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	t.Parallel()
	// A nil pool must still execute everything (serially).
	var p *Pool
	sum := 0
	p.ForEach(10, func(i int) { sum += i })
	if sum != 45 {
		t.Errorf("nil pool sum = %d, want 45", sum)
	}
}
