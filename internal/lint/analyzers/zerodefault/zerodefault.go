// Package zerodefault guards the repo's negative-sentinel defaulting idiom
// (webgraph.Off). A config field defaulted with
//
//	if c.Field == 0 { c.Field = v }
//
// silently re-enables the default for callers who meant "explicitly zero";
// the idiom pairs every such default with a clamp (`else if c.Field < 0 {
// c.Field = 0 }`), so a negative sentinel expresses true zero. The
// analyzer inspects defaulting functions — methods and functions whose
// receiver or parameters name a *Config type — and flags any ==0 numeric
// default whose expression has no <0 comparison in the same (closure)
// scope. Fields whose zero is nonsensical rather than meaningful should be
// defaulted with <= 0, which both repels garbage and passes the check.
package zerodefault

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"focus/internal/lint/analysis"
)

// Analyzer is the zerodefault analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "zerodefault",
	Doc:  "flag ==0 config defaulting without the negative-sentinel clamp idiom",
	Run:  run,
}

func run(prog *analysis.Program, target *analysis.Package) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, file := range target.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isConfigFunc(target, fd) {
				continue
			}
			out = append(out, checkFunc(target, fd)...)
		}
	}
	return out
}

// isConfigFunc reports whether fd's receiver or a parameter is a named
// *Config type — the shape of every withDefaults in the repo.
func isConfigFunc(pkg *analysis.Package, fd *ast.FuncDecl) bool {
	fields := []*ast.FieldList{fd.Recv, fd.Type.Params}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			t := pkg.Info.Types[f.Type].Type
			if t == nil {
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name := named.Obj().Name()
				if name == "Config" || len(name) > 6 && name[len(name)-6:] == "Config" {
					return true
				}
			}
		}
	}
	return false
}

// site is one defaulting comparison, keyed by the enclosing function node
// (so two closures using `*p` don't share clamps) and the expression text.
type site struct {
	scope ast.Node
	expr  string
}

func checkFunc(pkg *analysis.Package, fd *ast.FuncDecl) []analysis.Diagnostic {
	defaults := map[site]token.Pos{}
	clamps := map[site]bool{}

	var walk func(n ast.Node, scope ast.Node)
	walk = func(n ast.Node, scope ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != n {
					walk(m.Body, m)
					return false
				}
			case *ast.IfStmt:
				// A default is `if x == 0 { ... x = ... }`: the ==0 guard
				// must actually overwrite the field, otherwise it is an
				// ordinary emptiness check (validation, error returns).
				if b, ok := m.Cond.(*ast.BinaryExpr); ok {
					if expr, op, isZero := zeroComparison(pkg, b); isZero && op == token.EQL {
						k := site{scope: scope, expr: types.ExprString(expr)}
						if _, seen := defaults[k]; !seen && assigns(m.Body, k.expr) {
							defaults[k] = b.Pos()
						}
					}
				}
			case *ast.BinaryExpr:
				expr, op, isZeroCmp := zeroComparison(pkg, m)
				if !isZeroCmp {
					return true
				}
				if op == token.LSS || op == token.LEQ {
					clamps[site{scope: scope, expr: types.ExprString(expr)}] = true
				}
			}
			return true
		})
	}
	walk(fd.Body, fd)

	var out []analysis.Diagnostic
	for k, pos := range defaults {
		if clamps[k] {
			continue
		}
		out = append(out, analysis.Diagnostic{
			Pos: pos,
			Message: "defaults " + k.expr + " on ==0 with no negative-sentinel clamp: add `if " +
				k.expr + " < 0 { " + k.expr + " = 0 }` (explicit zero, see webgraph.Off) or default on <=0",
		})
	}
	return out
}

// assigns reports whether body assigns to an expression whose text is
// expr (the defaulting write).
func assigns(body *ast.BlockStmt, expr string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				// `c.Web = ...` also (re)writes `c.Web.NumPages`.
				ls := types.ExprString(lhs)
				if ls == expr || strings.HasPrefix(expr, ls+".") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// zeroComparison matches `expr OP 0` / `0 OP expr` for numeric expr,
// normalizing the reversed form (0 > x ⇒ x < 0).
func zeroComparison(pkg *analysis.Package, b *ast.BinaryExpr) (ast.Expr, token.Token, bool) {
	var expr ast.Expr
	op := b.Op
	switch {
	case isZeroLit(b.Y):
		expr = b.X
	case isZeroLit(b.X):
		expr = b.Y
		switch b.Op {
		case token.GTR:
			op = token.LSS
		case token.GEQ:
			op = token.LEQ
		case token.LSS:
			op = token.GTR
		case token.LEQ:
			op = token.GEQ
		}
	default:
		return nil, 0, false
	}
	if op != token.EQL && op != token.LSS && op != token.LEQ {
		return nil, 0, false
	}
	t := pkg.Info.Types[expr].Type
	if t == nil {
		return nil, 0, false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 {
		return nil, 0, false
	}
	// Only selector and deref expressions are config-field shapes; skip
	// plain locals (loop counters and the like).
	switch expr.(type) {
	case *ast.SelectorExpr, *ast.StarExpr:
		return expr, op, true
	}
	return nil, 0, false
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && (lit.Value == "0" || lit.Value == "0.0")
}
