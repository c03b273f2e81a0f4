package main

import (
	"maps"
	"strings"
	"testing"
)

// TestClockValues reads the timing metrics of a run's clock line, the way
// the harness prints it.
func TestClockValues(t *testing.T) {
	line := "  machine-speed reference 41.20 ms (nominal 40 ms); as the clock read them:  lat_p50_ms 1.2500  lat_p95_ms 3.0000  setup_s 0.4100"
	_, pairs, ok := strings.Cut(line, clockLine)
	if !ok {
		t.Fatal("the clock line was not found")
	}
	want := map[string]float64{"lat_p50_ms": 1.25, "lat_p95_ms": 3, "setup_s": 0.41}
	if got := clockValues(pairs); !maps.Equal(got, want) {
		t.Fatalf("clockValues = %v, want %v", got, want)
	}
}
