package simtime

// eventHeap is a concrete indexed quad-ary min-heap of events ordered
// by (when, seq), so ties break deterministically in scheduling order.
// Being typed — no container/heap interface, no `any` boxing — means a
// push or pop cannot fail a type assertion and silently drop or
// corrupt the queue, and the hot path allocates nothing beyond slice
// growth. Every event carries its heap position, so Cancel removes it
// eagerly in O(log n) instead of leaving a dead entry to sift around
// until its firing time — under saturation those dead entries would
// otherwise outnumber the live ones. The branching factor of four
// trades a slightly costlier sift-down for a much shorter tree:
// pushes (the common operation in an arrival-heavy simulation) touch
// ~half the levels of a binary heap, and a node's children share a
// cache line.
//
// It deliberately mirrors jobheap.go rather than sharing a generic:
// the sift loops are the engine's innermost path, and the concrete
// element type keeps the index writes and key comparisons direct
// field accesses. A fix to either file's heap logic belongs in both.
type eventHeap struct {
	items []*Event
	// peak is the most events the heap has held at once.
	peak int
}

// eventBefore is the (when, seq) strict weak order.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.items) }

// min returns the earliest event without removing it. The caller must
// ensure the heap is non-empty.
func (h *eventHeap) min() *Event { return h.items[0] }

func (h *eventHeap) push(e *Event) {
	e.index = len(h.items)
	h.items = append(h.items, e)
	h.peak = max(h.peak, len(h.items))
	h.siftUp(e.index)
}

// popMin removes and returns the earliest event. The caller must
// ensure the heap is non-empty.
func (h *eventHeap) popMin() *Event {
	top := h.items[0]
	h.removeAt(0)
	return top
}

// removeAt deletes the event at heap position i.
func (h *eventHeap) removeAt(i int) {
	items := h.items
	n := len(items) - 1
	out := items[i]
	if i != n {
		moved := items[n]
		items[i] = moved
		moved.index = i
	}
	items[n] = nil
	h.items = items[:n]
	if i < n {
		// The filler came from the bottom: it can only need to move
		// down relative to i's subtree, or up relative to i's ancestors.
		h.siftDown(i)
		h.siftUp(i)
	}
	out.index = -1
}

// fix restores heap order after the event at position i had its key
// rewritten in place (Retarget). A rewritten key can only need to move
// down into i's subtree or up past i's ancestors, never both.
func (h *eventHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *eventHeap) siftUp(i int) {
	items := h.items
	e := items[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := items[parent]
		if !eventBefore(e, p) {
			break
		}
		items[i] = p
		p.index = i
		i = parent
	}
	items[i] = e
	e.index = i
}

func (h *eventHeap) siftDown(i int) {
	items := h.items
	n := len(items)
	e := items[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventBefore(items[c], items[best]) {
				best = c
			}
		}
		if !eventBefore(items[best], e) {
			break
		}
		items[i] = items[best]
		items[i].index = i
		i = best
	}
	items[i] = e
	e.index = i
}
