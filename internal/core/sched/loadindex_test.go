package sched

import (
	"math/rand"
	"testing"
)

// fleetLoads indexes per-node loads in ARMNodes order, the fixture
// form of a fleet whose loads the owner keeps current.
func fleetLoads(nodes []int, loads map[int]int) *LoadIndex {
	x := NewLoadIndex(len(nodes))
	for pos, id := range nodes {
		x.Add(pos, loads[id])
	}
	return x
}

// scanLeast is the reference linear scan the index replaces: least
// load among accepted positions, strict < so ties keep fleet order.
func scanLeast(loads []int, ok func(int) bool) (int, bool) {
	best, found := 0, false
	for pos, l := range loads {
		if ok != nil && !ok(pos) {
			continue
		}
		if !found || l < loads[best] {
			best, found = pos, true
		}
	}
	return best, found
}

// scanMost is the reference most-loaded scan (strict >, ties keep
// fleet order).
func scanMost(loads []int, ok func(int) bool) (int, bool) {
	best, found := 0, false
	for pos, l := range loads {
		if ok != nil && !ok(pos) {
			continue
		}
		if !found || l > loads[best] {
			best, found = pos, true
		}
	}
	return best, found
}

// checkAgainstScans compares both picks, and every position's load,
// with the reference scans under the given filter.
func checkAgainstScans(t testing.TB, x *LoadIndex, loads []int, ok func(int) bool) {
	t.Helper()
	for pos, l := range loads {
		if got := x.Load(pos); got != l {
			t.Fatalf("Load(%d) = %d, want %d", pos, got, l)
		}
	}
	gotPos, gotOK := x.Least(ok)
	wantPos, wantOK := scanLeast(loads, ok)
	if gotPos != wantPos || gotOK != wantOK {
		t.Fatalf("Least = %d/%v, scan = %d/%v (loads %v)", gotPos, gotOK, wantPos, wantOK, loads)
	}
	gotPos, gotOK = x.Most(ok)
	wantPos, wantOK = scanMost(loads, ok)
	if gotPos != wantPos || gotOK != wantOK {
		t.Fatalf("Most = %d/%v, scan = %d/%v (loads %v)", gotPos, gotOK, wantPos, wantOK, loads)
	}
}

// walkLoadIndex drives an index and a plain load slice through the
// same random ±1 walk (never below zero), checking the picks against
// the reference scans after every step under a random availability
// mask, an all-accepting nil filter and an all-rejecting one.
func walkLoadIndex(t testing.TB, n, steps int, seed int64, maskPct int) {
	rng := rand.New(rand.NewSource(seed))
	x := NewLoadIndex(n)
	loads := make([]int, n)
	mask := make([]bool, n)
	avail := func(pos int) bool { return mask[pos] }
	none := func(int) bool { return false }
	checkAgainstScans(t, x, loads, nil)
	for s := 0; s < steps && n > 0; s++ {
		pos := rng.Intn(n)
		delta := 1
		if loads[pos] > 0 && rng.Intn(2) == 0 {
			delta = -1
		}
		x.Add(pos, delta)
		loads[pos] += delta
		for i := range mask {
			mask[i] = rng.Intn(100) < maskPct
		}
		checkAgainstScans(t, x, loads, avail)
		if s%16 == 0 {
			checkAgainstScans(t, x, loads, nil)
			checkAgainstScans(t, x, loads, none)
		}
	}
}

func TestLoadIndexMatchesReferenceScans(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 192, 1024} {
		for i, maskPct := range []int{100, 90, 50, 5} {
			walkLoadIndex(t, n, 600, int64(n*10+i), maskPct)
		}
	}
}

func TestLoadIndexBulkDeltasAndEmptyFleet(t *testing.T) {
	x := NewLoadIndex(0)
	if _, ok := x.Least(nil); ok {
		t.Fatal("empty index picked a position")
	}
	if _, ok := x.Most(nil); ok {
		t.Fatal("empty index picked a position")
	}
	// Multi-unit moves walk the extremes across empty levels.
	x = NewLoadIndex(3)
	loads := []int{0, 0, 0}
	for _, mv := range [][2]int{{0, 7}, {1, 3}, {0, -7}, {2, 12}, {1, -3}, {2, -5}} {
		x.Add(mv[0], mv[1])
		loads[mv[0]] += mv[1]
		checkAgainstScans(t, x, loads, nil)
		checkAgainstScans(t, x, loads, func(pos int) bool { return pos != 0 })
	}
}

func TestLoadIndexRejectsNegativeLoad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add took a load below zero without panicking")
		}
	}()
	NewLoadIndex(2).Add(1, -1)
}

func TestLoadIndexPicksDoNotAllocate(t *testing.T) {
	x := NewLoadIndex(192)
	for pos := 0; pos < 192; pos++ {
		x.Add(pos, pos%7)
	}
	up := func(pos int) bool { return pos%3 != 0 }
	avg := testing.AllocsPerRun(100, func() {
		x.Add(5, 1)
		x.Least(up)
		x.Most(up)
		x.Add(5, -1)
	})
	if avg != 0 {
		t.Fatalf("picks allocate %.1f per call, want 0", avg)
	}
}

// FuzzLoadIndex checks Least and Most against the reference scans over
// fuzzer-chosen fleet sizes, ±1 walks and availability masks: each
// input byte moves one position up or down, and the mask bytes choose
// which positions the filter accepts.
func FuzzLoadIndex(f *testing.F) {
	f.Add(uint16(1), []byte{0, 1, 2}, []byte{0xff})
	f.Add(uint16(64), []byte{3, 200, 7, 7, 7, 130}, []byte{0x0f, 0xf0})
	f.Add(uint16(65), []byte{64, 192, 0, 128}, []byte{0xaa})
	f.Add(uint16(192), []byte{10, 20, 30, 150, 140}, []byte{0})
	f.Fuzz(func(t *testing.T, size uint16, walk, maskBytes []byte) {
		n := int(size%1100) + 1
		x := NewLoadIndex(n)
		loads := make([]int, n)
		avail := func(pos int) bool {
			if len(maskBytes) == 0 {
				return true
			}
			b := maskBytes[(pos/8)%len(maskBytes)]
			return b&(1<<(pos%8)) != 0
		}
		for i, b := range walk {
			// The low seven bits (scaled by the step) pick the
			// position, the high bit the direction.
			pos := (int(b&0x7f) * (i + 1) * 31) % n
			delta := 1
			if b&0x80 != 0 && loads[pos] > 0 {
				delta = -1
			}
			x.Add(pos, delta)
			loads[pos] += delta
			checkAgainstScans(t, x, loads, avail)
		}
		checkAgainstScans(t, x, loads, nil)
	})
}
