// Package xpath implements the path-expression subset the paper's queries
// use: child steps (/), descendant-or-self steps (//) and attribute steps
// (@name), with name tests. Evaluation returns nodes in document order
// without duplicates.
//
// Trailing predicates like book[author = $a1] are handled at the XQuery AST
// level: the normalizer of Sec. 3 moves them into where clauses before
// translation, so the algebra only ever sees plain axis paths. The paper
// declares optimized XPath translation orthogonal (Sec. 2), and so do we.
package xpath

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"nalquery/internal/dom"
	"nalquery/internal/value"
)

// Axis selects the node set relative to a context node.
type Axis uint8

// Axes.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisAttribute
)

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisAttribute:
		return "attribute"
	default:
		return fmt.Sprintf("axis(%d)", uint8(a))
	}
}

// PosLast selects the last node of each context node's step result
// (spelled [last()]).
const PosLast = -1

// Step is a single location step: an axis plus a name test. The empty name
// (spelled "*") matches every element or attribute. Pos, when non-zero,
// applies a positional predicate to the step: Pos = n keeps the n-th node
// (1-based) of the nodes the step selects from each context node, PosLast
// keeps the last one. Per XPath, the predicate applies within each context
// node's result list, not to the concatenated sequence.
type Step struct {
	Axis Axis
	Name string
	Pos  int
}

// Path is a relative path: a sequence of steps applied to a context
// sequence.
type Path struct {
	Steps []Step
}

// String renders the path in XPath syntax (descendant steps as //).
func (p Path) String() string {
	var sb strings.Builder
	for i, s := range p.Steps {
		switch s.Axis {
		case AxisDescendant:
			sb.WriteString("//")
		case AxisChild:
			if i > 0 {
				sb.WriteString("/")
			}
		case AxisAttribute:
			if i > 0 {
				sb.WriteString("/")
			}
			sb.WriteString("@")
		}
		if s.Name == "" {
			sb.WriteString("*")
		} else {
			sb.WriteString(s.Name)
		}
		switch {
		case s.Pos == PosLast:
			sb.WriteString("[last()]")
		case s.Pos > 0:
			fmt.Fprintf(&sb, "[%d]", s.Pos)
		}
	}
	return sb.String()
}

// Parse parses a relative path such as "book/title", "//book/@year" or
// "bidtuple/itemno". A leading "/" is treated as a child step from the
// context (the context item supplied by the caller is the document or
// element the path is relative to); a leading "//" is a descendant step.
func Parse(s string) (Path, error) {
	var p Path
	rest := s
	axis := AxisChild
	if strings.HasPrefix(rest, "//") {
		axis = AxisDescendant
		rest = rest[2:]
	} else if strings.HasPrefix(rest, "/") {
		rest = rest[1:]
	}
	for rest != "" {
		var name string
		// Find end of this step.
		end := len(rest)
		nextAxis := AxisChild
		advance := 0
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			end = i
			advance = 1
			nextAxis = AxisChild
			if strings.HasPrefix(rest[i:], "//") {
				advance = 2
				nextAxis = AxisDescendant
			}
		}
		name = rest[:end]
		stepAxis := axis
		if strings.HasPrefix(name, "@") {
			stepAxis = AxisAttribute
			name = name[1:]
		}
		// Positional predicate suffix: name[3] or name[last()].
		pos := 0
		if i := strings.IndexByte(name, '['); i >= 0 {
			if !strings.HasSuffix(name, "]") {
				return Path{}, fmt.Errorf("xpath: unterminated predicate in %q", s)
			}
			inner := name[i+1 : len(name)-1]
			name = name[:i]
			if inner == "last()" {
				pos = PosLast
			} else {
				n, err := strconv.Atoi(inner)
				if err != nil || n < 1 {
					return Path{}, fmt.Errorf("xpath: unsupported predicate [%s] in %q (only positional predicates reach the path layer; value predicates are normalized into where clauses)", inner, s)
				}
				pos = n
			}
			if stepAxis == AxisAttribute {
				return Path{}, fmt.Errorf("xpath: positional predicate on attribute step in %q", s)
			}
		}
		if name == "" {
			return Path{}, fmt.Errorf("xpath: empty step in %q", s)
		}
		if name == "*" {
			name = ""
		}
		if !validName(name) {
			return Path{}, fmt.Errorf("xpath: invalid name test %q in %q", name, s)
		}
		p.Steps = append(p.Steps, Step{Axis: stepAxis, Name: name, Pos: pos})
		if end == len(rest) {
			break
		}
		rest = rest[end+advance:]
		axis = nextAxis
		if rest == "" {
			return Path{}, fmt.Errorf("xpath: trailing slash in %q", s)
		}
	}
	if len(p.Steps) == 0 {
		return Path{}, fmt.Errorf("xpath: empty path %q", s)
	}
	return p, nil
}

// MustParse parses a path and panics on error. For tests, examples, and
// the experiment harnesses' constant path strings ONLY — user input must
// go through Parse so the error surfaces typed.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		//nal:allow-panic Must* contract on constant test/experiment paths; user input goes through Parse (mustparse confines callers)
		panic(err)
	}
	return p
}

func validName(s string) bool {
	if s == "" {
		return true // wildcard
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9', r == '-', r == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Append applies the path to a context value (a node, a node sequence, or
// NULL) and appends the resulting nodes — in document order, without
// duplicates — to dst, which the caller owns: a consumer that evaluates the
// path once per tuple hands the same buffer back (dst[:0]) and, once the
// buffer has grown to its largest selection, navigates without allocating.
// Nothing is kept of dst beyond the call.
//
// Every step but the last appends into one of two node buffers that swap
// roles, starting on the stack; the last appends into dst. Each step's name
// is looked up once per call (AppendNames keeps the lookups across calls).
func (p Path) Append(dst []*dom.Node, ctx value.Value) []*dom.Node {
	var local [8]dom.NameTest
	return p.appendWith(dst, ctx, p.tests(local[:0]))
}

// AppendNames is Append with the path's name tests kept in names: it starts
// from the tests names holds and leaves there the ones it ends with.
func (p Path) AppendNames(dst []*dom.Node, ctx value.Value, names *Names) []*dom.Node {
	var local [8]dom.NameTest
	kept := names.last.Load()
	tests := local[:0]
	if kept == nil {
		tests = p.tests(tests)
	} else {
		tests = append(tests, *kept...)
	}
	dst = p.appendWith(dst, ctx, tests)
	if kept == nil || !slices.Equal(tests, *kept) {
		resolved := slices.Clone(tests)
		names.last.Store(&resolved)
	}
	return dst
}

// appendWith is Append under the name tests tests, one per step.
func (p Path) appendWith(dst []*dom.Node, ctx value.Value, tests []dom.NameTest) []*dom.Node {
	last := len(p.Steps) - 1
	if last < 0 {
		return appendContext(dst, ctx)
	}
	var a, b [8]*dom.Node
	cur, next := appendContext(a[:0], ctx), b[:0]
	for i, st := range p.Steps[:last] {
		next = next[:0]
		for _, n := range cur {
			next = appendStep(next, n, st, &tests[i])
		}
		// One context node's selection is in document order and
		// duplicate-free as it stands; several must be merged.
		if len(cur) > 1 {
			next = dedupeDocOrder(next)
		}
		cur, next = next, cur
	}
	start := len(dst)
	for _, n := range cur {
		dst = appendStep(dst, n, p.Steps[last], &tests[last])
	}
	if len(cur) > 1 {
		dst = dst[:start+len(dedupeDocOrder(dst[start:]))]
	}
	return dst
}

// Positional reports whether a step carries a positional predicate: such
// a selection depends on each context node's list, which an absolute path
// does not record, so Selects does not describe it.
func (p Path) Positional() bool {
	return slices.ContainsFunc(p.Steps, func(st Step) bool { return st.Pos != 0 })
}

// Selects reports whether the path, applied to a document node as Append
// applies it, selects the nodes whose absolute path is abs ("/bib/book",
// "/bib/book/@year"). Every node has one absolute path, so the selection is
// the union of the nodes at the paths Selects accepts. The rule is
// Append's, read on path segments: a child or attribute step consumes one
// segment, a descendant step one or more with its name test on the last
// (Descendants excludes the context node), and an element test never
// matches an attribute segment. Positional predicates are not read (see
// Positional).
func (p Path) Selects(abs string) bool { return selects(p.Steps, abs) }

// SelectsBelow reports whether the path selects the nodes at abs from some
// context depth: applied to the document node or to some element on the
// way down abs. It is the reach of a relative path that runs once per
// tuple over wherever its context lies.
func (p Path) SelectsBelow(abs string) bool {
	if len(p.Steps) == 0 {
		return true
	}
	first := p.Steps[0]
	switch first.Axis {
	case AxisChild:
		// A child step from any depth is a descendant step from the top.
		first.Axis = AxisDescendant
	case AxisAttribute:
		for i := 0; i < len(abs); i++ {
			if abs[i] == '/' && selectsAfter(first, p.Steps[1:], abs[i:]) {
				return true
			}
		}
		return false
	}
	return selectsAfter(first, p.Steps[1:], abs)
}

func selects(steps []Step, abs string) bool {
	if len(steps) == 0 {
		return abs == ""
	}
	return selectsAfter(steps[0], steps[1:], abs)
}

// selectsAfter is selects for the steps st, then rest.
func selectsAfter(st Step, rest []Step, abs string) bool {
	if st.Axis != AxisDescendant {
		tail, ok := stepOver(st, abs)
		return ok && selects(rest, tail)
	}
	// Every segment start, scanned byte by byte: paths are short, and a
	// call per segment to find its end costs more than the scan. A named
	// test skips the segments that do not start with the name's first byte.
	for i := 0; i < len(abs); i++ {
		if abs[i] != '/' || st.Name != "" && (i+1 == len(abs) || abs[i+1] != st.Name[0]) {
			continue
		}
		if tail, ok := stepOver(st, abs[i:]); ok && selects(rest, tail) {
			return true
		}
	}
	return false
}

// stepOver applies a step's node test to the first segment of abs
// ("/seg/rest") and returns what follows that segment ("/rest").
func stepOver(st Step, abs string) (string, bool) {
	if len(abs) < 2 || abs[0] != '/' {
		return "", false
	}
	seg := abs[1:]
	if attr := seg[0] == '@'; attr != (st.Axis == AxisAttribute) {
		return "", false
	} else if attr {
		seg = seg[1:]
	}
	if st.Name == "" {
		if i := strings.IndexByte(seg, '/'); i >= 0 {
			return seg[i:], true
		}
		return "", true
	}
	rest, ok := strings.CutPrefix(seg, st.Name)
	return rest, ok && (rest == "" || rest[0] == '/')
}

// Eval is the path as an expression: the selection of Append as a value in
// the one normal form value.OfNodes defines (no node the nil sequence, one
// node that node, several a sequence). A selection of up to eight nodes is
// gathered on the stack.
func (p Path) Eval(ctx value.Value) value.Value {
	var buf [8]*dom.Node
	return value.OfNodes(p.Append(buf[:0], ctx))
}

// EvalNames is Eval with the path's name tests kept in names (AppendNames).
func (p Path) EvalNames(ctx value.Value, names *Names) value.Value {
	var buf [8]*dom.Node
	return value.OfNodes(p.AppendNames(buf[:0], ctx, names))
}

// Names keeps a path's name tests (dom.NameTest, one per step) resolved
// against the document the path was last applied in. A consumer that applies
// one path per tuple keeps one Names beside the compiled path and hands it to
// AppendNames or EvalNames, so each step's name is looked up once per
// document, not once per context node. It is safe for concurrent use: a call
// works on its own copy of the tests, and publishes the copy when it resolved
// them against another document. The zero Names is ready to use; a Names
// serves one path.
type Names struct {
	last atomic.Pointer[[]dom.NameTest]
}

// tests returns the path's name tests, fresh, in dst's memory.
func (p Path) tests(dst []dom.NameTest) []dom.NameTest {
	for _, st := range p.Steps {
		dst = append(dst, dom.NameTest{Name: st.Name})
	}
	return dst
}

func appendContext(dst []*dom.Node, v value.Value) []*dom.Node {
	switch w := v.(type) {
	case value.NodeVal:
		if w.Node != nil {
			dst = append(dst, w.Node)
		}
	case value.Seq:
		for _, item := range w {
			dst = appendContext(dst, item)
		}
	}
	return dst
}

// appendStep appends one context node's selection for a step, whose name
// test is test, to dst. A positional predicate applies within that selection
// (XPath semantics), before any merge with other context nodes' selections.
func appendStep(dst []*dom.Node, n *dom.Node, st Step, test *dom.NameTest) []*dom.Node {
	start := len(dst)
	switch st.Axis {
	case AxisChild:
		dst = test.AppendChildren(n, dst)
	case AxisDescendant:
		dst = test.AppendDescendants(n, dst)
	case AxisAttribute:
		if st.Name == "" {
			dst = n.AppendAttrs(dst)
		} else if a := test.Attr(n); a != nil {
			dst = append(dst, a)
		}
	}
	pos := st.Pos
	if pos == PosLast {
		pos = len(dst) - start
	}
	switch {
	case pos == 0:
	case pos <= len(dst)-start:
		dst[start] = dst[start+pos-1]
		dst = dst[:start+1]
	default:
		dst = dst[:start]
	}
	return dst
}

// dedupeDocOrder sorts into document order and removes duplicate handles.
// Contexts produced by upstream steps are already in document order, but
// descendant steps over overlapping contexts can produce duplicates; the
// XPath data model requires a duplicate-free, document-ordered result.
func dedupeDocOrder(nodes []*dom.Node) []*dom.Node {
	if len(nodes) < 2 {
		return nodes
	}
	// Sorted here, not through a helper in dom: called across the package
	// boundary the generic sort is opaque to escape analysis, which would
	// move Append's two stack buffers to the heap (TestEvalAllocations).
	slices.SortStableFunc(nodes, dom.CompareOrder)
	out := nodes[:1]
	for _, n := range nodes[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}
