// Package freelist keeps the scratch a finished cell hands back (an
// engine, a shaper's array, a random source, PPTS's index) for the next
// cell to reuse. Unlike a sync.Pool, a List is emptied neither by a
// garbage collection nor by the scheduler's per-P slots, so what a cell
// allocates does not depend on when the collector last ran.
package freelist

import "sync"

// Nodes bounds each List: the items it keeps weigh at most Nodes in all,
// the budget of the registry's topology memo. An item's weight, given to
// Put, is the node count it is sized for or an upper bound on it, and an
// item no network sizes weighs one. A list holds no more items than were
// in use at once, and the budget keeps a large network's arrays from
// staying pinned after its run.
const Nodes = 1 << 16

// List is a mutex-guarded stack of released items; the zero value is an
// empty list.
type List[T any] struct {
	mu    sync.Mutex
	items []T
	sizes []int
	nodes int
}

// Get returns the item put last, or false when the list is empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.items); n > 0 {
		x, ok, l.nodes = l.items[n-1], true, l.nodes-l.sizes[n-1]
		clear(l.items[n-1:])
		l.items, l.sizes = l.items[:n-1], l.sizes[:n-1]
	}
	return x, ok
}

// Put releases x, weighing nodes (at least one), for a later Get; it
// drops x when the list would then weigh more than Nodes.
func (l *List[T]) Put(x T, nodes int) {
	nodes = max(nodes, 1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nodes+nodes <= Nodes {
		l.items, l.sizes, l.nodes = append(l.items, x), append(l.sizes, nodes), l.nodes+nodes
	}
}
