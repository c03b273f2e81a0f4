package algebra

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nalquery/internal/value"
)

// exprForms is the test's inventory of the expression forms;
// TestChildMethodsAreComplete fails when the package declares one it lacks.
var exprForms = []Expr{Var{}, ConstVal{}, Param{}, Doc{}, PathOf{}, CmpExpr{}, InExpr{}, AndExpr{},
	OrExpr{}, NotExpr{}, CondExpr{}, ArithExpr{}, Call{}, NestedApply{}, AggOfAttr{}, ExistsQ{},
	ForallQ{}, BindTuples{}}

// notChildren are the fields that hold a nested plan or a sequence function:
// deliberately not expression children. eachNested, cost.expr and
// FreeVars name their forms.
var notChildren = map[string]bool{
	"NestedApply.Plan": true, "NestedApply.F": true,
	"ExistsQ.Range": true, "ForallQ.Range": true,
	"AggOfAttr.F": true,
}

func childReceivers(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
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
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Child" {
					names = append(names, fd.Recv.List[0].Type.(*ast.Ident).Name)
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

func exprChildren(e Expr) []Expr {
	var out []Expr
	for i := 0; e.Child(i) != nil; i++ {
		out = append(out, e.Child(i))
	}
	return out
}

// TestChildMethodsAreComplete plants a distinct sentinel in every field of
// type Expr or []Expr of every expression form and requires Child to yield
// exactly the planted ones in field order, MapChildren to visit the same ones
// in the same order and to rebuild rather than write into the original, and
// MapChildren(identity) to return an equal value. Plan- and function-holding
// fields must be listed in notChildren. A field or a form added without
// wiring fails here, not in a query.
func TestChildMethodsAreComplete(t *testing.T) {
	var known []string
	for _, f := range exprForms {
		known = append(known, reflect.TypeOf(f).Name())
	}
	sort.Strings(known)
	if declared := childReceivers(t); !reflect.DeepEqual(known, declared) {
		t.Fatalf("the test knows the forms %v, the package declares %v", known, declared)
	}
	exprType := reflect.TypeOf((*Expr)(nil)).Elem()
	opType := reflect.TypeOf((*Op)(nil)).Elem()
	fnType := reflect.TypeOf((*SeqFunc)(nil)).Elem()
	for _, form := range exprForms {
		typ := reflect.TypeOf(form)
		v := reflect.New(typ).Elem()
		var planted []Expr
		sentinel := func() reflect.Value {
			s := ConstVal{V: value.Str(fmt.Sprintf("sentinel %d", len(planted)))}
			planted = append(planted, s)
			return reflect.ValueOf(s)
		}
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Name() + "." + typ.Field(i).Name
			switch ft := typ.Field(i).Type; {
			case ft == exprType:
				v.Field(i).Set(sentinel())
			case ft == reflect.SliceOf(exprType):
				v.Field(i).Set(reflect.Append(v.Field(i), sentinel(), sentinel()))
			case ft == opType || ft == fnType:
				if !notChildren[field] {
					t.Errorf("%s holds a plan or a sequence function and is not listed in notChildren", field)
				}
			case notChildren[field]:
				t.Errorf("%s is listed in notChildren and holds neither a plan nor a sequence function", field)
			}
		}
		e := v.Interface().(Expr)

		if got := exprChildren(e); !reflect.DeepEqual(got, planted) {
			t.Errorf("%s: Child yields %v, planted %v", typ.Name(), got, planted)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for i := 0; e.Child(i) != nil; i++ {
			}
		}); allocs != 0 {
			t.Errorf("%s: walking the children allocates %v times", typ.Name(), allocs)
		}
		if got := e.MapChildren(func(c Expr) Expr { return c }); !reflect.DeepEqual(got, e) {
			t.Errorf("%s: MapChildren(identity) = %#v, want %#v", typ.Name(), got, e)
		}
		var visited []Expr
		mapped := e.MapChildren(func(c Expr) Expr {
			visited = append(visited, c)
			return Var{Name: fmt.Sprint(len(visited))}
		})
		if !reflect.DeepEqual(visited, planted) {
			t.Errorf("%s: MapChildren visits %v, planted %v", typ.Name(), visited, planted)
		}
		for i, c := range exprChildren(mapped) {
			if c != (Var{Name: fmt.Sprint(i + 1)}) {
				t.Errorf("%s: child %d of the rebuilt form is %v", typ.Name(), i, c)
			}
		}
		if got := exprChildren(e); !reflect.DeepEqual(got, planted) {
			t.Errorf("%s: MapChildren wrote into its receiver: %v", typ.Name(), got)
		}
	}
}

// TestConjunctsAndOfNameSet pins the nil-in/nil-out behaviour the call sites
// of the three shared helpers rely on.
func TestConjunctsAndOfNameSet(t *testing.T) {
	a, b, c := Var{Name: "a"}, Var{Name: "b"}, Var{Name: "c"}
	if got := Conjuncts(nil); got != nil {
		t.Errorf("Conjuncts(nil) = %v, want nil: no predicate has no conjuncts", got)
	}
	if got := Conjuncts(a); !reflect.DeepEqual(got, []Expr{a}) {
		t.Errorf("Conjuncts(a) = %v", got)
	}
	tree := AndExpr{L: a, R: AndExpr{L: AndExpr{L: b, R: OrExpr{L: a, R: c}}, R: c}}
	flat := []Expr{a, b, OrExpr{L: a, R: c}, c}
	if got := Conjuncts(tree); !reflect.DeepEqual(got, flat) {
		t.Errorf("Conjuncts(%s) = %v, want %v", tree, got, flat)
	}
	if got := AndOf(nil); got != nil {
		t.Errorf("AndOf(nil) = %v, want nil: a residual of nothing is no predicate", got)
	}
	if got := AndOf([]Expr{a}); got != Expr(a) {
		t.Errorf("AndOf([a]) = %v", got)
	}
	leftDeep := AndExpr{L: AndExpr{L: AndExpr{L: a, R: b}, R: OrExpr{L: a, R: c}}, R: c}
	if got := AndOf(flat); !reflect.DeepEqual(got, leftDeep) {
		t.Errorf("AndOf = %s, want the left-deep %s", got, leftDeep)
	}
	if got := Conjuncts(AndOf(flat)); !reflect.DeepEqual(got, flat) {
		t.Errorf("Conjuncts(AndOf(cs)) = %v, want %v", got, flat)
	}

	if got := NameSet(nil, false); got != nil {
		t.Errorf("NameSet of unknown attributes = %v, want nil", got)
	}
	if got := NameSet(UnnestDistinct{In: relR1(), Attr: "g"}.Attrs()); got != nil || got["A1"] {
		t.Errorf("NameSet(µD.Attrs()) = %v, want a nil set that reads as empty", got)
	}
	if got := NameSet(nil, true); got == nil || len(got) != 0 {
		t.Errorf("NameSet of no attributes = %v, want an empty set callers may add to", got)
	}
	if got := NameSet(relR1().Attrs()); !got["A1"] || got["A2"] {
		t.Errorf("NameSet(R1.Attrs()) = %v", got)
	}
}
