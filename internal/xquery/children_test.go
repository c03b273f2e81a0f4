package xquery

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// forms and clauses are the test's inventory of the two sealed families;
// TestChildMethodsAreComplete fails when the package declares one it lacks.
var (
	forms = []Expr{FLWR{}, Quant{}, Cond{}, EmptySeq{}, VarRef{}, ContextRef{}, StrLit{}, NumLit{},
		Path{}, Call{}, Cmp{}, Arith{}, And{}, Or{}, ElemCtor{}}
	clauses = []Clause{ForClause{}, LetClause{}, WhereClause{}, OrderByClause{}}
)

// receiversOf returns the names of the package's types that declare the
// method, from the non-test sources.
func receiversOf(t *testing.T, method string) []string {
	t.Helper()
	pkgs, err := goparser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for file, f := range pkg.Files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != method {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				names = append(names, recv.(*ast.Ident).Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

func typeNames[T any](vs []T) []string {
	var names []string
	for _, v := range vs {
		names = append(names, reflect.TypeOf(v).Name())
	}
	sort.Strings(names)
	return names
}

// planter fills every place of a form that holds an expression with a fresh
// sentinel leaf, in field order.
type planter struct{ planted []Expr }

var (
	exprType   = reflect.TypeOf((*Expr)(nil)).Elem()
	clauseType = reflect.TypeOf((*Clause)(nil)).Elem()
)

func (p *planter) sentinel() reflect.Value {
	s := StrLit{V: fmt.Sprintf("sentinel %d", len(p.planted))}
	p.planted = append(p.planted, s)
	return reflect.ValueOf(s)
}

func (p *planter) fill(v reflect.Value) {
	switch {
	case v.Type() == exprType:
		v.Set(p.sentinel())
	case v.Type() == clauseType:
		panic("a clause is planted by its slice")
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			p.fill(v.Field(i))
		}
	case v.Kind() == reflect.Slice && v.Type().Elem() == clauseType:
		// One clause of every kind.
		cs := reflect.MakeSlice(v.Type(), len(clauses), len(clauses))
		for i, c := range clauses {
			kind := reflect.New(reflect.TypeOf(c)).Elem()
			p.fill(kind)
			cs.Index(i).Set(kind)
		}
		v.Set(cs)
	case v.Kind() == reflect.Slice:
		before := len(p.planted)
		s := reflect.MakeSlice(v.Type(), 2, 2)
		p.fill(s.Index(0))
		p.fill(s.Index(1))
		if len(p.planted) > before {
			v.Set(s)
		}
	}
}

func childrenOf(e Expr) []Expr {
	var out []Expr
	for i := 0; e.Child(i) != nil; i++ {
		out = append(out, e.Child(i))
	}
	return out
}

// TestChildMethodsAreComplete plants a distinct sentinel in every field of
// every form that is, or holds, an expression (Step.Pred, Binding.E,
// OrderSpec.Key, Content.E included) and requires Child to yield exactly the
// planted ones in field order, MapChildren to visit the same ones in the same
// order and to rebuild rather than write into the original, and
// MapChildren(identity) to return an equal value. A field or a form added
// without wiring fails here, not in a query.
func TestChildMethodsAreComplete(t *testing.T) {
	if got, want := typeNames(forms), receiversOf(t, "Child"); !reflect.DeepEqual(got, want) {
		t.Fatalf("the test knows the forms %v, the package declares %v", got, want)
	}
	if got, want := typeNames(clauses), receiversOf(t, "clauseString"); !reflect.DeepEqual(got, want) {
		t.Fatalf("the test knows the clauses %v, the package declares %v", got, want)
	}
	for _, form := range forms {
		name := reflect.TypeOf(form).Name()
		var p planter
		v := reflect.New(reflect.TypeOf(form)).Elem()
		p.fill(v)
		e := v.Interface().(Expr)

		if got := childrenOf(e); !reflect.DeepEqual(got, p.planted) {
			t.Errorf("%s: Child yields %v, planted %v", name, got, p.planted)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for i := 0; e.Child(i) != nil; i++ {
			}
		}); allocs != 0 {
			t.Errorf("%s: walking the children allocates %v times", name, allocs)
		}
		if got := e.MapChildren(func(c Expr) Expr { return c }); !reflect.DeepEqual(got, e) {
			t.Errorf("%s: MapChildren(identity) = %#v, want %#v", name, got, e)
		}
		var visited []Expr
		mapped := e.MapChildren(func(c Expr) Expr {
			visited = append(visited, c)
			return NumLit{V: float64(len(visited))}
		})
		if !reflect.DeepEqual(visited, p.planted) {
			t.Errorf("%s: MapChildren visits %v, planted %v", name, visited, p.planted)
		}
		for i, c := range childrenOf(mapped) {
			if c != (NumLit{V: float64(i + 1)}) {
				t.Errorf("%s: child %d of the rebuilt form is %v", name, i, c)
			}
		}
		if got := childrenOf(e); !reflect.DeepEqual(got, p.planted) {
			t.Errorf("%s: MapChildren wrote into its receiver: %v", name, got)
		}
	}
}

// TestScopeSeesBindingsWhereTheyTakeEffect pins the order FLWR.Scope and
// MapScoped promise: a binding is reported after its own expression and
// before everything that follows it.
func TestScopeSeesBindingsWhereTheyTakeEffect(t *testing.T) {
	m, err := ParseModule(`for $a at $i in 1, $b in $a let $c := $b where $c order by $i return $a`)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Body.(FLWR)
	const want = "1 bind(a,i) $a bind(b) $b bind(c) $c $i $a"
	var trace []string
	f.Scope(func(e Expr) { trace = append(trace, e.String()) }, func(b Binding) {
		if b.Pos != "" {
			trace = append(trace, "bind("+b.Var+","+b.Pos+")")
		} else {
			trace = append(trace, "bind("+b.Var+")")
		}
	})
	if got := strings.Join(trace, " "); got != want {
		t.Errorf("Scope order %q, want %q", got, want)
	}
	trace = nil
	out := f.MapScoped(func(e Expr) Expr {
		trace = append(trace, e.String())
		return e
	}, func(b Binding) Binding {
		if b.Pos != "" {
			trace = append(trace, "bind("+b.Var+","+b.Pos+")")
		} else {
			trace = append(trace, "bind("+b.Var+")")
		}
		b.Var += "x"
		return b
	})
	if got := strings.Join(trace, " "); got != want {
		t.Errorf("MapScoped order %q, want %q", got, want)
	}
	if got, want := out.String(), `for $ax at $i in 1, $bx in $a let $cx := $b where $c order by $i return $a`; got != want {
		t.Errorf("MapScoped rebuilt %q, want %q", got, want)
	}
}
