package lint

import (
	"go/ast"
	"go/types"
)

// DecoderSafety enforces the PR 1 huge-allocation fix as a standing
// invariant: inside a function annotated //histburst:decoder, every make()
// whose size is not a compile-time constant must trace back to a
// binenc.(*Reader).SliceLen call, which validates decoded counts against the
// remaining input before anything is allocated. Raw binary.Uvarint /
// reader-driven sizes are exactly how pbe1, pbe2, cmpbe and dyadic once
// allocated multi-GB slices from one corrupt length byte.
var DecoderSafety = &Analyzer{
	Name: "decodersafety",
	Doc:  "decode-path allocations must size through binenc.SliceLen",
	Run:  runDecoderSafety,
}

func runDecoderSafety(p *Package) []Diagnostic {
	var out []Diagnostic
	for fn, anno := range p.Annos.Funcs {
		if !anno.Decoder || fn.Body == nil {
			continue
		}
		tr := newDefTracker(p, fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !p.isBuiltin(call.Fun, "make") {
				return true
			}
			for _, arg := range call.Args[1:] {
				if !tr.safeSize(arg) {
					out = append(out, p.diag(arg.Pos(), "decodersafety",
						"allocation size %q does not flow through binenc.SliceLen; validate decoded lengths with SliceLen before allocating",
						p.render(arg)))
				}
			}
			return true
		})
	}
	return out
}

// defTracker records every assignment to each local variable inside one
// function, so a make() size identifier can be traced to its definitions.
type defTracker struct {
	p    *Package
	defs map[types.Object][]ast.Expr
	// unsafeObjs marks variables bound by constructs the tracker cannot
	// follow (multi-value assignments, range clauses).
	unsafeObjs map[types.Object]bool
	visiting   map[types.Object]bool
}

func newDefTracker(p *Package, fn *ast.FuncDecl) *defTracker {
	tr := &defTracker{
		p:          p,
		defs:       make(map[types.Object][]ast.Expr),
		unsafeObjs: make(map[types.Object]bool),
		visiting:   make(map[types.Object]bool),
	}
	obj := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		if o := p.Info.Defs[id]; o != nil {
			return o
		}
		return p.Info.Uses[id]
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					if o := obj(lhs); o != nil {
						tr.defs[o] = append(tr.defs[o], st.Rhs[i])
					}
				}
			} else {
				// n, err := f(): a tuple source is never a blessed size.
				for _, lhs := range st.Lhs {
					if o := obj(lhs); o != nil {
						tr.unsafeObjs[o] = true
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range [2]ast.Expr{st.Key, st.Value} {
				if e != nil {
					if o := obj(e); o != nil {
						tr.unsafeObjs[o] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if o := p.Info.Defs[name]; o != nil && i < len(st.Values) {
					tr.defs[o] = append(tr.defs[o], st.Values[i])
				}
			}
		}
		return true
	})
	return tr
}

// safeSize reports whether a make() size expression is trustworthy:
// constants, len/cap of in-memory values, SliceLen results, arithmetic over
// those, and a min() with one such argument, which it cannot exceed.
// Anything read raw from the wire — Uvarint results, struct fields,
// function parameters — is not.
func (tr *defTracker) safeSize(e ast.Expr) bool {
	if tv, ok := tr.p.Info.Types[e]; ok && tv.Value != nil {
		return true // compile-time constant
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return tr.safeSize(x.X)
	case *ast.UnaryExpr:
		return tr.safeSize(x.X)
	case *ast.BinaryExpr:
		return tr.safeSize(x.X) && tr.safeSize(x.Y)
	case *ast.Ident:
		obj := tr.p.Info.Uses[x]
		if obj == nil {
			return false
		}
		if tr.unsafeObjs[obj] {
			return false
		}
		defs := tr.defs[obj]
		if len(defs) == 0 {
			return false // parameter, field, or package-level state
		}
		if tr.visiting[obj] {
			// Self-referential assignment (n = n * 2): the other
			// definitions decide.
			return true
		}
		tr.visiting[obj] = true
		defer delete(tr.visiting, obj)
		for _, def := range defs {
			if !tr.safeSize(def) {
				return false
			}
		}
		return true
	case *ast.CallExpr:
		if tr.p.isBuiltin(x.Fun, "len") || tr.p.isBuiltin(x.Fun, "cap") {
			return true
		}
		if isSliceLenCall(x) {
			return true
		}
		if tr.p.isBuiltin(x.Fun, "min") {
			for _, arg := range x.Args {
				if tr.safeSize(arg) {
					return true
				}
			}
			return false
		}
		// Conversions like int(n) are as safe as their operand.
		if tv, ok := tr.p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return tr.safeSize(x.Args[0])
		}
		return false
	}
	return false
}

// isSliceLenCall matches r.SliceLen(...) by method name. The real call site
// is always binenc.(*Reader).SliceLen; matching by name keeps fixtures
// self-contained and still catches every raw-length allocation, which is the
// failure mode that matters.
func isSliceLenCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "SliceLen"
}
