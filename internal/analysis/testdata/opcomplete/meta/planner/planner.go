// Package planner consumes fixture/engine's Op set across a package
// boundary, mirroring how cost and core consume internal/algebra: the
// three surfaces here can only be checked through the OpsFact exported
// by the engine package, so this fixture proves fact flow works under
// the unitchecker protocol.
package planner

import "fixture/engine"

// Cost mirrors the cost-model dispatch surface.
func Cost(op engine.Op) int {
	//nal:opswitch cost
	switch op.(type) {
	case engine.Scan:
		return 1
	case engine.Filter:
		return 2
	case engine.GroupSelf:
		return 3
	}
	return 0
}

// Rewrite mirrors the logical-rewrite walker.
func Rewrite(op engine.Op) engine.Op {
	//nal:opswitch rewrite
	switch w := op.(type) {
	case engine.Scan:
		return w
	case engine.Filter:
		return w
	case engine.GroupSelf:
		return w
	}
	return op
}

// Rebuild mirrors the simplifier's rebuildChildren surface.
func Rebuild(op engine.Op) engine.Op {
	//nal:opswitch sec2
	switch w := op.(type) {
	case engine.Scan:
		return w
	case engine.Filter:
		return w
	case engine.GroupSelf:
		return w
	}
	return op
}
