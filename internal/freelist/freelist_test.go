package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestListOrderAndBudget checks that Get hands back the item put last,
// that a list keeps items until their nodes would pass Nodes, counting
// each as at least one node, and that a collection empties nothing.
func TestListOrderAndBudget(t *testing.T) {
	var l List[[]int]
	if _, ok := l.Get(); ok {
		t.Fatal("an empty list handed out an item")
	}
	l.Put(make([]int, 1), Nodes-2)
	l.Put(make([]int, 2), 0) // counts as one node
	l.Put(make([]int, 3), 2) // would pass the budget: dropped
	l.Put(make([]int, 4), 1)
	runtime.GC()
	runtime.GC()
	for _, want := range []int{4, 2, 1} {
		x, ok := l.Get()
		if !ok || len(x) != want {
			t.Fatalf("Get = %d items (%v), want the %d-item slice", len(x), ok, want)
		}
	}
	if _, ok := l.Get(); ok || l.nodes != 0 {
		t.Fatalf("the list still holds %d nodes", l.nodes)
	}
	l.Put(make([]int, 5), Nodes+1) // larger than the budget: dropped
	if _, ok := l.Get(); ok {
		t.Fatal("an item larger than the budget was kept")
	}
}

// TestListShared has goroutines take and hand back items at once, as a
// sweep's workers do: the list never holds more items than were made, and
// its node count stays the sum of what it holds (run it under -race).
func TestListShared(t *testing.T) {
	var l List[*int]
	var made atomic.Int64
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				x, ok := l.Get()
				if !ok {
					x = new(int)
					made.Add(1)
				}
				*x++
				l.Put(x, 3)
			}
		}()
	}
	wg.Wait()
	if len(l.items) > int(made.Load()) || l.nodes != 3*len(l.items) || len(l.sizes) != len(l.items) {
		t.Fatalf("%d items, %d sizes and %d nodes after making %d", len(l.items), len(l.sizes), l.nodes, made.Load())
	}
	total := 0
	for _, x := range l.items {
		total += *x
	}
	if total != 800 {
		t.Errorf("the items were used %d times, want 800", total)
	}
}
