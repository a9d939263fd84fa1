package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeObj returns the object named by a call's function expression: a
// package-level function, a method, or a builtin. nil for indirect calls
// through function values and for type conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj lives in package pkgPath and is named
// one of names (empty names = any name).
func isPkgFunc(obj types.Object, pkgPath string, names ...string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

// pkgPathIs reports whether pkg's import path is suffix or ends in
// "/"+suffix. Suffix matching keeps the checks valid for both the real
// module path and relocated fixture copies.
func pkgPathIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type name defined in a package whose path ends in pkgSuffix.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && pkgPathIs(obj.Pkg(), pkgSuffix)
}

// rootIdent returns the leftmost identifier of selector/index/call
// chains like a.b[c].d, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch ee := ast.Unparen(e).(type) {
		case *ast.Ident:
			return ee
		case *ast.SelectorExpr:
			e = ee.X
		case *ast.IndexExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		case *ast.CallExpr:
			e = ee.Fun
		default:
			return nil
		}
	}
}

// funcDecls yields every function declaration of the unit with its file.
func funcDecls(u *Unit) []funcInFile {
	var out []funcInFile
	for _, f := range u.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, funcInFile{file: f, decl: fd})
			}
		}
	}
	return out
}

type funcInFile struct {
	file *ast.File
	decl *ast.FuncDecl
}

// hasDirective reports whether the comment group contains a comment with
// the exact directive prefix (e.g. "//rtm:hot").
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
