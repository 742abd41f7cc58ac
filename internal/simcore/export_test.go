package simcore

import "testing"

// TestConstantDelaysBypassHeap checks that a steady constant-delay
// stream — three overlapping chains shaped like a link's propagation
// and data/ack serialization delays, plus same-instant follow-ups —
// never touches the heap: the lanes and the FIFO carry all of it.
func TestConstantDelaysBypassHeap(t *testing.T) {
	e := NewEngine(1)
	delays := []Duration{25 * Microsecond, 120 * Microsecond, 3200 * Nanosecond}
	const perChain = 10000
	ran := 0
	for _, d := range delays {
		d := d
		n := 0
		var hop func()
		hop = func() {
			ran++
			if len(e.heap) != 0 {
				t.Fatalf("heap holds %d events at %v", len(e.heap), e.Now())
			}
			if n++; n < perChain {
				e.After(d, hop)
				if n%16 == 0 {
					e.After(0, func() { ran++ })
				}
			}
		}
		e.After(d, hop)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := len(delays) * (perChain + (perChain-1)/16); ran != want {
		t.Fatalf("ran %d events, want %d", ran, want)
	}
	if h := e.HeapScheduled(); h != 0 {
		t.Fatalf("%d events went through the heap, want 0", h)
	}
	if e.Dispatched() != int64(ran) {
		t.Fatalf("dispatched %d, ran %d", e.Dispatched(), ran)
	}
}
