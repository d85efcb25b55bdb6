package model

import (
	"math"
	"slices"
	"testing"
)

// TestItemSetRoundTrip: item sets of every shape decode to what was
// encoded, each in the form its size picks — a bitmap only when strictly
// shorter than the gap list — and consume exactly their own bytes.
func TestItemSetRoundTrip(t *testing.T) {
	every := func(from, to, step int) (set []ItemID) {
		for i := from; i < to; i += step {
			set = append(set, ItemID(i))
		}
		return set
	}
	for _, c := range []struct {
		name   string
		set    []ItemID
		bitmap bool
	}{
		{"empty", nil, false},
		{"one", []ItemID{7}, false},
		{"tie", []ItemID{10, 14}, false},
		{"dense", every(0, 4096, 1), true},
		{"every third", every(1, 3*4096, 3), true},
		{"every ninth", every(0, 9*100, 9), false},
		{"extremes", []ItemID{0, 1 << 20, math.MaxInt32}, false},
		{"dense at the top", every(math.MaxInt32-20, math.MaxInt32+1, 1), true},
	} {
		b := AppendItemSet([]byte{0xAA}, c.set, func(item ItemID) ItemID { return item })[1:]
		if form := len(b) > 1 && b[0]&1 == 1; form != c.bitmap {
			t.Errorf("%s: coded as a bitmap %v, want %v", c.name, form, c.bitmap)
		}
		r := NewWireReader(append(b, 0x55))
		s := r.ItemSet()
		got := make([]ItemID, 0, s.Len())
		for range s.Len() {
			got = append(got, s.Next())
		}
		if r.Err() != nil || r.Remaining() != 1 || !slices.Equal(got, c.set) {
			t.Errorf("%s: decoded %v (err %v, %d bytes left), want %v", c.name, got, r.Err(), r.Remaining(), c.set)
		}
	}
}
