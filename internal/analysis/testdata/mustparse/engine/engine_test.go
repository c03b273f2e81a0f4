package engine

import "testing"

// Test files run the oracle freely: that is what it is for.
func TestOracle(t *testing.T) {
	var leaf Op = sel{}
	if leaf.Children()[0] != nil && leaf.Eval(0) != 0 {
		t.Fatal("unexpected")
	}
}
