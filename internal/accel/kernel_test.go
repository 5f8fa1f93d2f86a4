package accel_test

import (
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/mem"
)

// TestPanelMap pins the overflow-safe extent check: (Rows-1)*Stride +
// Width from Addr must lie inside memory without wrapping 2^64 at any
// step, and a single row never uses its stride.
func TestPanelMap(t *testing.T) {
	const size = 1 << 12
	m := mem.New(size)
	cases := []struct {
		name string
		p    accel.Panel
		ok   bool
		span int
	}{
		{"fits exactly", accel.Panel{Addr: size - 40, Stride: 16, Rows: 3, Width: 8}, true, 40},
		{"one byte past the end", accel.Panel{Addr: size - 39, Stride: 16, Rows: 3, Width: 8}, false, 0},
		{"single row ignores stride", accel.Panel{Addr: 0x10, Stride: ^uint64(0), Rows: 1, Width: 8}, true, 8},
		{"rows times stride wraps", accel.Panel{Addr: 0x10, Stride: 1 << 63, Rows: 3, Width: 8}, false, 0},
		{"stride wraps to a lower row", accel.Panel{Addr: 0x100, Stride: ^uint64(15), Rows: 2, Width: 8}, false, 0},
		{"extent plus width wraps", accel.Panel{Addr: 0, Stride: ^uint64(3), Rows: 2, Width: 8}, false, 0},
		{"address plus extent wraps", accel.Panel{Addr: ^uint64(7), Stride: 8, Rows: 2, Width: 8}, false, 0},
	}
	for _, tc := range cases {
		v, err := tc.p.Map(m, "dev", "A")
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "dev: bad configuration: A panel") {
				t.Errorf("%s: err = %v, want a bad-configuration error", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(v.Data) != tc.span {
			t.Errorf("%s: view spans %d bytes, want %d", tc.name, len(v.Data), tc.span)
		}
	}
}
