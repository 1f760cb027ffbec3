package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRepoCarriesKeyAnnotations pins the contract-bearing annotations in the
// repo's own sources. The analyzers only enforce what is declared: deleting
// //histburst:lockorder silently stops lock-order checking, deleting
// //histburst:durable-ack silently stops the fsync-before-ack check, and so
// on. This test turns those silent regressions into failures — the negative
// half of "make lint enforces the invariant".
func TestRepoCarriesKeyAnnotations(t *testing.T) {
	keys := []struct {
		file string
		want string
		why  string
	}{
		{"internal/segstore/segstore.go", "//histburst:lockorder wal.mu Store.mu",
			"the WAL-before-store lock order (PR 6) must stay declared"},
		{"internal/segstore/segstore.go", "//histburst:lockorder Store.ingestMu wal.mu",
			"the write path's lock must stay declared outside the log's"},
		{"internal/segstore/segstore.go", "//histburst:lockorder Store.ingestMu Store.mu",
			"the write path's lock must stay declared outside the store's"},
		{"internal/segstore/ingest.go", "//histburst:durable-ack appendLocked",
			"AppendBatch, the one function that logs, must keep the WAL-before-ack contract"},
		{"internal/segstore/wal.go", "//histburst:durable-ack Sync",
			"wal.appendLocked must keep fsync dominating its ack"},
		{"internal/segstore/segstore.go", "//histburst:atomic",
			"the generation view (and counters) must keep atomic discipline"},
		{"internal/wire/server.go", "//histburst:worker",
			"wire server goroutines must keep a declared shutdown mechanism"},
		{"internal/segstore/segstore.go", "//histburst:worker stop",
			"Open's background loops must keep a declared shutdown mechanism"},
	}
	root := moduleRootForTest(t)
	for _, k := range keys {
		data, err := os.ReadFile(filepath.Join(root, k.file))
		if err != nil {
			t.Fatalf("reading %s: %v", k.file, err)
		}
		if !strings.Contains(string(data), k.want) {
			t.Errorf("%s no longer contains %q — %s", k.file, k.want, k.why)
		}
	}
}

// TestOneWritePath: every element enters the store through
// Store.AppendBatch — admit, log, apply — so in segstore's non-test code
// only AppendBatch logs (wal.appendLocked), and only Store.apply and the
// freeze's tail re-append write a head (memHead.appendBatch). The side
// paths the write path replaced stay gone.
func TestOneWritePath(t *testing.T) {
	callers := map[string][]string{
		"appendLocked": {"Store.AppendBatch"},
		"appendBatch":  {"Store.apply", "Store.freezeHead"},
	}
	retired := map[string]bool{
		"AppendStream": true, "applyDirect": true, "applyAccepted": true,
		"stopOnReject": true, "compactOnce": true, "decayOnce": true,
	}
	eachProductFile(t, func(rel string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(rel)) != "internal/segstore" {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if retired[n.Name] {
						t.Errorf("%s: %s names the retired %s", rel, name, n.Name)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if allowed := callers[sel.Sel.Name]; allowed != nil && !slices.Contains(allowed, name) {
							t.Errorf("%s: %s calls %s; only %v may", rel, name, sel.Sel.Name, allowed)
						}
					}
				}
				return true
			})
		}
	})
}

// TestOneSummaryCodec: a PBE-2 summary is stored one way, as a cell block —
// a detector's levels and a single-event summary alike — so neither summary
// package carries a codec of its own, PBE-1 keeps no merge the experiments do
// not build, and the detector has one shape: the option, field and flag of
// the index-free one stay gone.
func TestOneSummaryCodec(t *testing.T) {
	methods := map[string][]string{
		"internal/pbe1": {"MarshalBinary", "UnmarshalBinary", "MergeAppend"},
		"internal/pbe2": {"MarshalBinary", "UnmarshalBinary"},
	}
	retired := map[string]bool{"WithoutEventIndex": true, "NoIndex": true, "noIndex": true}
	eachProductFile(t, func(rel string, f *ast.File) {
		banned := methods[filepath.ToSlash(filepath.Dir(rel))]
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && slices.Contains(banned, fn.Name.Name) {
				t.Errorf("%s declares the method %s; a summary is stored as a cell block", rel, fn.Name.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && retired[id.Name] {
				t.Errorf("%s names the retired %s; every detector has the event index", rel, id.Name)
			}
			return true
		})
	})
}

// TestOneLevelType: every level of the event index is a *cmpbe.Sketch — a
// collision-free level is a one-row sketch over the identity hash — so cmpbe
// declares no second level type, and neither the interface over the two nor
// the functions that told them apart come back.
func TestOneLevelType(t *testing.T) {
	retired := map[string]bool{
		"MergeLevels": true, "DownsampleLevels": true, "MergeAppendLevel": true,
		"MergeDirects": true, "DownsampleDirects": true, "decodeDirect": true, "ofKind": true,
	}
	eachProductFile(t, func(rel string, f *ast.File) {
		inCmpbe := filepath.ToSlash(filepath.Dir(rel)) == "internal/cmpbe"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if inCmpbe && (n.Name.Name == "Direct" || n.Name.Name == "Level") {
					t.Errorf("%s declares the type %s; every level is a *Sketch", rel, n.Name.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "cmpbe" && n.Sel.Name == "Level" {
					t.Errorf("%s names cmpbe.Level; every level is a *cmpbe.Sketch", rel)
				}
			case *ast.Ident:
				if retired[n.Name] {
					t.Errorf("%s names the retired %s; every level is a *cmpbe.Sketch", rel, n.Name)
				}
			}
			return true
		})
	})
}

// TestPBE1StaysABaseline: the served, persisted, merged and decayed detector
// has one cell type, PBE-2. PBE-1 is the paper's baseline, which the
// experiments build in memory; no other non-test code may import it, so it
// cannot creep back into a product path.
func TestPBE1StaysABaseline(t *testing.T) {
	const pbe1 = "histburst/internal/pbe1"
	eachProductFile(t, func(rel string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(rel)) == "internal/experiments" {
			return
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == pbe1 {
				t.Errorf("%s imports %s; only internal/experiments may", rel, pbe1)
			}
		}
	})
}

// TestLevelsHoldConcreteCells: a level's cells are one []pbe2.Builder, so no
// non-test code of the packages that build, serve or store the detector names
// the pbe.PBE interface a cell slot would need to hold any other kind.
func TestLevelsHoldConcreteCells(t *testing.T) {
	const pbePath = "histburst/internal/pbe"
	held := map[string]bool{".": true, "internal/cmpbe": true, "internal/dyadic": true, "internal/segstore": true}
	eachProductFile(t, func(rel string, f *ast.File) {
		if !held[filepath.ToSlash(filepath.Dir(rel))] {
			return
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == pbePath {
				name = "pbe"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return
		}
		named := false
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "PBE" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					named = true
				}
			}
			return !named
		})
		if named {
			t.Errorf("%s names pbe.PBE; a level holds pbe2.Builder cells", rel)
		}
	})
}

// TestOneEventSearch: the store answers BURSTY-EVENT and TOP with one
// Algorithm-3 walk over its summed segments, so no non-test segstore code
// asks a segment's *histburst.Detector for a search of its own, and query.go
// starts no goroutine: the per-segment fan-out at θ/m and its rescoring pass
// stay gone.
func TestOneEventSearch(t *testing.T) {
	root := moduleRootForTest(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "internal", "segstore"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TypeErrors) > 0 {
		t.Fatalf("internal/segstore does not type-check: %v", p.TypeErrors[0])
	}
	searches := map[string]bool{"BurstyEvents": true, "TopBursty": true}
	for _, f := range p.Syntax {
		inQuery := filepath.Base(p.Fset.Position(f.Pos()).Filename) == "query.go"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if inQuery {
					t.Errorf("%s: query.go starts a goroutine; a query walks the summed index on its caller's", p.Fset.Position(n.Pos()))
				}
			case *ast.SelectorExpr:
				if sel := p.Info.Selections[n]; sel != nil && searches[n.Sel.Name] && isDetector(sel.Recv()) {
					t.Errorf("%s: segstore calls Detector.%s; the store searches its summed index", p.Fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestQueriesStayOnTheCallersGoroutine: a facade call runs on its caller's
// goroutine, which already sits in a server's worker pool, so no non-test
// code of the root package or internal/dyadic starts a goroutine — except
// Tree.AppendBatch, whose level fan-out is ingest, not a query.
func TestQueriesStayOnTheCallersGoroutine(t *testing.T) {
	eachProductFile(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir != "." && dir != "internal/dyadic" {
			return
		}
		for _, d := range f.Decls {
			where := "a package-level declaration"
			if fn, ok := d.(*ast.FuncDecl); ok {
				if dir == "internal/dyadic" && fn.Recv != nil && fn.Name.Name == "AppendBatch" { // Tree's, the one method of that name there
					continue
				}
				where = fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: %s starts a goroutine; only Tree.AppendBatch may", rel, where)
				}
				return true
			})
		}
	})
}

// isDetector reports whether t is histburst.Detector or a pointer to one.
func isDetector(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "histburst" && named.Obj().Name() == "Detector"
}

// eachProductFile calls fn with every non-test Go file of the module outside
// testdata and dot directories, parsed, and its path from the module root.
func eachProductFile(t *testing.T, fn func(rel string, f *ast.File)) {
	t.Helper()
	root := moduleRootForTest(t)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		fn(rel, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func moduleRootForTest(t *testing.T) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}
