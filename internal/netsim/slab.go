package netsim

import "slices"

// slab hands out stable pointers carved from chunked storage, so a
// network of N nodes or links costs a few large allocations instead of
// one or more per element. Elements are never freed individually.
//
// Chunk size is where slack hides. A builder that knows its size calls
// grow and gets one exactly sized chunk; otherwise chunks double with
// the slab (minChunk, then the count so far) up to maxChunk, so a small
// LAN reserves a handful of elements and a large unhinted build wastes
// at most one chunk. A chunk's capacity is rounded up to what the
// allocator hands out anyway (a size class, or whole pages).
type slab[T any] struct {
	chunks [][]T // every chunk at full length, in allocation order
	free   []T   // unused tail of the last chunk
	made   int   // elements reserved so far, across all chunks
	want   int   // size of the next chunk, when grow asked for one
}

const (
	minChunk = 4
	maxChunk = 256
)

// grow arranges for the next k elements to need at most one more chunk,
// sized for what the current chunk cannot hold.
func (s *slab[T]) grow(k int) {
	if k > len(s.free) {
		s.want = k - len(s.free)
	}
}

// next returns a pointer to a zeroed element.
func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		n := s.want
		if n == 0 {
			n = min(max(s.made, minChunk), maxChunk)
		}
		s.want = 0
		c := slices.Grow([]T(nil), n)
		s.free = c[:cap(c)]
		s.chunks = append(s.chunks, s.free)
		s.made += len(s.free)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// each calls fn on every element handed out, in the order next returned
// them.
func (s *slab[T]) each(fn func(*T)) {
	for i, c := range s.chunks {
		if i == len(s.chunks)-1 {
			c = c[:len(c)-len(s.free)]
		}
		for j := range c {
			fn(&c[j])
		}
	}
}
