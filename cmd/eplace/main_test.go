package main

import "testing"

func TestFlatSizeWarning(t *testing.T) {
	for _, tc := range []struct {
		movable, levels int
		warn            bool
	}{
		{50000, 1, false},
		{50001, 1, true},
		{25001, 1, false},
		{flatValidatedCells, 1, false},
		{flatValidatedCells + 1, 1, true},
		{flatValidatedCells + 1, 0, true},
		{100000, 2, false},
		{100, 1, false},
	} {
		if got := flatSizeWarning(tc.movable, tc.levels); (got != "") != tc.warn {
			t.Errorf("flatSizeWarning(%d, %d) = %q, want a warning: %v", tc.movable, tc.levels, got, tc.warn)
		}
	}
}
