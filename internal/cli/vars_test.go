package cli

import (
	"math"
	"testing"
)

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"65536", 65536, true},
		{"64k", 64 << 10, true},
		{"64KB", 64 << 10, true},
		{" 16m ", 16 << 20, true},
		{"1g", 1 << 30, true},
		{"8589934591g", 8589934591 << 30, true}, // largest whole-GiB count below 2^63
		{"9223372036854775807", math.MaxInt64, true},
		{"", 0, false},
		{"lots", 0, false},
		{"-1", 0, false},
		{"-1k", 0, false},
		{"1.5g", 0, false},
		// Products past int64 used to wrap: the first to MinInt64 (which
		// slips under any cap), the second to 0 (which means "no budget").
		{"8589934592g", 0, false},
		{"17179869184g", 0, false},
		{"9007199254740992k", 0, false},
		{"9223372036854775807m", 0, false},
		{"9223372036854775808", 0, false},
	} {
		got, err := ParseBytes(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
