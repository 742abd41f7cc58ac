package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntervalSetBasic(t *testing.T) {
	var s intervalSet
	s.add(0, 10)
	if got := s.contiguousFrom(0); got != 10 {
		t.Fatalf("contiguousFrom(0) = %d", got)
	}
	s.add(20, 30)
	if s.count() != 2 {
		t.Fatalf("count = %d", s.count())
	}
	s.add(10, 20) // bridges the gap
	if s.count() != 1 || s.contiguousFrom(0) != 30 {
		t.Fatalf("after bridge: count=%d cont=%d", s.count(), s.contiguousFrom(0))
	}
}

func TestIntervalSetOverlaps(t *testing.T) {
	var s intervalSet
	s.add(5, 15)
	s.add(0, 8) // overlaps left
	if s.count() != 1 || !s.covered(0, 15) {
		t.Fatalf("count=%d", s.count())
	}
	s.add(10, 25) // overlaps right
	if s.count() != 1 || !s.covered(0, 25) {
		t.Fatalf("count=%d", s.count())
	}
	s.add(3, 9) // fully inside
	if s.count() != 1 || s.contiguousFrom(0) != 25 {
		t.Fatalf("count=%d cont=%d", s.count(), s.contiguousFrom(0))
	}
}

func TestIntervalSetEmptyAdd(t *testing.T) {
	var s intervalSet
	s.add(5, 5)
	s.add(7, 3)
	if s.count() != 0 {
		t.Fatalf("degenerate adds created intervals: %d", s.count())
	}
	if s.contiguousFrom(0) != 0 {
		t.Fatalf("contiguousFrom on empty = %d", s.contiguousFrom(0))
	}
}

func TestIntervalSetGapAtStart(t *testing.T) {
	var s intervalSet
	s.add(5, 10)
	if got := s.contiguousFrom(0); got != 0 {
		t.Fatalf("contiguousFrom(0) with gap = %d", got)
	}
	if got := s.contiguousFrom(5); got != 10 {
		t.Fatalf("contiguousFrom(5) = %d", got)
	}
}

// Property: intervalSet agrees with a naive bitmap model under arbitrary
// overlapping adds — the robustness the TCP receiver depends on after
// go-back-N re-segmentation.
func TestPropertyIntervalSetMatchesBitmap(t *testing.T) {
	f := func(pairs []uint8) bool {
		var s intervalSet
		const n = 64
		var bits [n]bool
		for i := 0; i+1 < len(pairs); i += 2 {
			a := int64(pairs[i] % n)
			b := int64(pairs[i+1] % n)
			if a > b {
				a, b = b, a
			}
			s.add(a, b)
			for k := a; k < b; k++ {
				bits[k] = true
			}
		}
		// contiguousFrom(0) must equal the length of the true prefix.
		want := int64(0)
		for want < n && bits[want] {
			want++
		}
		if s.contiguousFrom(0) != want {
			return false
		}
		// covered must agree with the bitmap on all aligned ranges.
		for a := int64(0); a < n; a += 7 {
			for b := a + 1; b <= n; b += 11 {
				cov := true
				for k := a; k < b; k++ {
					if !bits[k] {
						cov = false
						break
					}
				}
				if s.covered(a, b) != cov {
					return false
				}
			}
		}
		// Intervals must be sorted and disjoint.
		for i := 1; i < len(s.iv); i++ {
			if s.iv[i-1].end >= s.iv[i].start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// runs returns the maximal covered runs of bits: the canonical form an
// intervalSet must hold (overlapping and adjacent adds merge).
func runs(bits []bool) []interval {
	var out []interval
	for k := 0; k < len(bits); k++ {
		if bits[k] && (k == 0 || !bits[k-1]) {
			out = append(out, interval{start: int64(k)})
		}
		if bits[k] && (k+1 == len(bits) || !bits[k+1]) {
			out[len(out)-1].end = int64(k + 1)
		}
	}
	return out
}

// Property: in-place add keeps exactly the bitmap's maximal runs after
// every add, including adds that bridge three or more existing intervals
// — the case where the merged tail is shifted left over itself.
func TestPropertyIntervalSetInPlaceAdd(t *testing.T) {
	bridged := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 96
		bits := make([]bool, n)
		var s intervalSet
		add := func(a, b int64) bool {
			before := s.count()
			s.add(a, b)
			for k := a; k < b; k++ {
				bits[k] = true
			}
			if s.count() <= before-2 {
				bridged++
			}
			return reflect.DeepEqual(s.iv, runs(bits))
		}
		// Scatter short disjoint intervals, in random order, so later
		// wide adds have many intervals to swallow.
		for _, i := range rng.Perm(n / 4) {
			if rng.Intn(3) > 0 {
				if !add(int64(4*i), int64(4*i+1+rng.Intn(2))) {
					return false
				}
			}
		}
		for k := 0; k < 8; k++ {
			a := int64(rng.Intn(n))
			b := a + int64(rng.Intn(n-int(a)+1))
			if !add(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if bridged == 0 {
		t.Fatal("no add bridged three or more intervals")
	}
}
