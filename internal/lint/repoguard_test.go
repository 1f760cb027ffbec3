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
			"start's background loops must keep a declared shutdown mechanism"},
		{"internal/segstore/segstore.go", "//histburst:lockorder Store.sealMu Store.ingestMu",
			"a seal step rotates the log, so its lock must stay declared outside the write path's"},
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
// paths the write path replaced stay gone. Compaction and decay share one
// rebuild executor: only Store.rebuildOnce swaps a run.
func TestOneWritePath(t *testing.T) {
	callers := map[string][]string{
		"appendLocked": {"Store.AppendBatch"},
		"appendBatch":  {"Store.apply", "Store.freezeHead"},
		"swapRun":      {"Store.rebuildOnce"},
	}
	retired := map[string]bool{
		"AppendStream": true, "applyDirect": true, "applyAccepted": true,
		"stopOnReject": true, "decayOnce": true,
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

// TestOneMergePath: sealed summaries merge one way, into a fresh result. The
// summary packages declare no in-place MergeAppend — merging cell by cell
// into the receiver, a refusal partway left it half-merged — and the public
// MergeAppend methods, which keep their signatures, reach a merge only
// through the n-way one: Detector's through MergeDetectors, Single's through
// pbe2.MergeFinished.
func TestOneMergePath(t *testing.T) {
	summaries := map[string]bool{"internal/pbe2": true, "internal/cmpbe": true, "internal/dyadic": true}
	via := map[string]string{"Detector": "MergeDetectors", "Single": "MergeFinished"}
	reached := map[string]bool{}
	eachProductFile(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "MergeAppend" {
				continue
			}
			if summaries[dir] {
				t.Errorf("%s declares the method MergeAppend; sealed summaries merge into a fresh result", rel)
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			name := types.ExprString(recv)
			want, known := via[name]
			if dir != "." || !known {
				t.Errorf("%s declares %s.MergeAppend, a merge path beside the n-way merges", rel, name)
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := types.ExprString(call.Fun)
				if i := strings.LastIndexByte(callee, '.'); i >= 0 {
					callee = callee[i+1:]
				}
				switch {
				case callee == want:
					reached[name] = true
				case strings.HasPrefix(callee, "Merge"):
					t.Errorf("%s: %s.MergeAppend calls %s; it merges only through %s", rel, name, callee, want)
				}
				return true
			})
		}
	})
	for name, want := range via {
		if !reached[name] {
			t.Errorf("%s.MergeAppend does not merge through %s", name, want)
		}
	}
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

// TestOneFacadeCodec: a summary has one file format and one decoder. A Single
// is a detector over one id and saves as that detector's file, so in the root
// package's non-test code only persist.go declares a file magic (a variable
// or constant named for one, or a byte literal spelling "HB…"), only the
// detector decoder — Decode, and decodeHeader, which Decode shares with
// Inspect — carries //histburst:decoder, no name spells the retired
// single-event magic (singleMagic, or any with HBS in it), and only
// persist.go, which refuses those files by name, spells HBS in a string.
func TestOneFacadeCodec(t *testing.T) {
	root := moduleRootForTest(t)
	paths, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	decoders := map[string]bool{"Decode": true, "decodeHeader": true}
	isChar := func(e ast.Expr, c string) bool {
		lit, ok := e.(*ast.BasicLit)
		return ok && lit.Kind == token.CHAR && lit.Value == c
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		rel := filepath.Base(path)
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if c.Text == "//histburst:decoder" && (rel != "persist.go" || !decoders[fn.Name.Name]) {
					t.Errorf("%s: %s is a decoder; a summary is read by Decode alone", rel, fn.Name.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if rel != "persist.go" && strings.Contains(strings.ToLower(name.Name), "magic") {
						t.Errorf("%s declares the file magic %s; only persist.go does", rel, name.Name)
					}
				}
			case *ast.CompositeLit:
				if rel != "persist.go" && len(n.Elts) >= 3 && isChar(n.Elts[0], "'H'") && isChar(n.Elts[1], "'B'") {
					t.Errorf("%s spells a file magic %s; only persist.go does", rel, types.ExprString(n))
				}
			case *ast.Ident:
				if n.Name == "singleMagic" || strings.Contains(strings.ToUpper(n.Name), "HBS") {
					t.Errorf("%s names %s; a Single saves as a detector file", rel, n.Name)
				}
			case *ast.BasicLit:
				if rel != "persist.go" && n.Kind == token.STRING && strings.Contains(n.Value, "HBS") {
					t.Errorf("%s spells %s; a Single saves as a detector file", rel, n.Value)
				}
			}
			return true
		})
	}
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

// TestOneBurstinessCurve: every query reads one b̃, the point query's, and
// BURSTY TIME sweeps it over the shifted breakpoints, so no non-test code of
// the packages that build, serve or store the detector declares a named type
// implementing pbe.Estimator — the F̃-curve views it once fed BURSTY TIME
// (cmpbe's per-event view, segstore's crossView) stay gone. The summaries,
// pbe1.Builder and pbe2's Builder and sealed Summary, remain the
// implementations.
func TestOneBurstinessCurve(t *testing.T) {
	root := moduleRootForTest(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	load := func(dir string) *types.Package {
		p, err := l.LoadDir(filepath.Join(root, filepath.FromSlash(dir)))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s does not type-check: %v", dir, p.TypeErrors[0])
		}
		return p.TypesPkg
	}
	estimator := load("internal/pbe").Scope().Lookup("Estimator").Type().Underlying().(*types.Interface)
	implementers := func(pkg *types.Package) []string {
		var out []string
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if types.Implements(tn.Type(), estimator) || types.Implements(types.NewPointer(tn.Type()), estimator) {
				out = append(out, name)
			}
		}
		return out
	}
	for dir, want := range map[string][]string{"internal/pbe1": {"Builder"}, "internal/pbe2": {"Builder", "Summary"}} {
		if got := implementers(load(dir)); !slices.Equal(got, want) {
			t.Errorf("%s: pbe.Estimator implementations %v, want %v", dir, got, want)
		}
	}
	for _, dir := range []string{".", "internal/cmpbe", "internal/dyadic", "internal/segstore", "internal/wire"} {
		for _, name := range implementers(load(dir)) {
			t.Errorf("%s declares %s, which implements pbe.Estimator; BURSTY TIME sweeps the point query", dir, name)
		}
	}
}

// TestSegstoreTestsDoNotPoll: background work is steps a test can take, so
// no segstore test waits on it by the clock — no time.Sleep, timer or
// time.Now().Add deadline — outside an allowlist that gives each file's
// reason; and no segstore code holds a sync.Cond: a frozen head is a nudge
// to the sealer, and a Checkpoint seals on its own goroutine.
func TestSegstoreTestsDoNotPoll(t *testing.T) {
	allowed := map[string]string{
		"proc_crash_test.go": "kills a child process on a real-time schedule",
	}
	clock := map[string]bool{"time.Sleep": true, "time.After": true, "time.AfterFunc": true,
		"time.Tick": true, "time.NewTimer": true, "time.NewTicker": true, "time.Now().Add": true}
	names, err := filepath.Glob(filepath.Join(moduleRootForTest(t), "internal", "segstore", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		test := strings.HasSuffix(name, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				switch x := types.ExprString(sel); {
				case !test && (x == "sync.Cond" || x == "sync.NewCond"):
					t.Errorf("%s: segstore holds a %s; nudge a worker or take the step instead", fset.Position(n.Pos()), x)
				case test && clock[x] && allowed[filepath.Base(name)] == "":
					t.Errorf("%s: a segstore test waits by the clock (%s); take steps, or allowlist the file with its reason", fset.Position(n.Pos()), x)
				}
			}
			return true
		})
	}
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
	eachGoFile(t, false, fn)
}

// eachGoFile is eachProductFile over the test files too when tests is set.
func eachGoFile(t *testing.T, tests bool, fn func(rel string, f *ast.File)) {
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
		if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
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

// TestOneElementRunCodec: an element run — event uvarint, then a time delta
// varint against the previous element — is written and read in one place,
// stream.AppendRun and stream.ReadRun. No other non-test code forms the
// delta (Varint(x.Time − prev)) or accumulates it (prev + r.Varint(),
// prev += r.Varint()).
func TestOneElementRunCodec(t *testing.T) {
	isVarintCall := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Varint"
	}
	eachProductFile(t, func(rel string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(rel)) == "internal/stream" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Varint" && sel.Sel.Name != "PutVarint" && sel.Sel.Name != "AppendVarint") {
					break
				}
				for _, arg := range n.Args {
					if d, ok := arg.(*ast.BinaryExpr); ok && d.Op == token.SUB {
						if x, ok := d.X.(*ast.SelectorExpr); ok && x.Sel.Name == "Time" {
							t.Errorf("%s encodes a time delta (%s); use stream.AppendRun", rel, types.ExprString(n))
						}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && (isVarintCall(n.X) || isVarintCall(n.Y)) {
					t.Errorf("%s accumulates a varint delta (%s); use stream.ReadRun", rel, types.ExprString(n))
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Rhs) == 1 && isVarintCall(n.Rhs[0]) {
					t.Errorf("%s accumulates a varint delta (%s += …); use stream.ReadRun", rel, types.ExprString(n.Lhs[0]))
				}
			}
			return true
		})
	})
}

// TestKernelsTakeASpan: τ is validated once, where a query enters, into a
// pbe.Span. The equation-(2) kernels take the Span, not a raw τ, so none of
// internal/cmpbe, internal/dyadic or internal/segstore checks τ ≤ 0 — their
// entry points build the Span instead, and cmpbe and dyadic, which no query
// enters, build none — and nothing names the retired pbe.BurstWindow.
func TestKernelsTakeASpan(t *testing.T) {
	kernels := map[string][]string{
		"internal/pbe":      {"Burstiness", "BurstFrequency", "BurstyTimes", "ShiftedBreakpoints"},
		"internal/cmpbe":    {"Sketch.Burstiness", "Sketch.BurstyTimes"},
		"internal/dyadic":   {"Index.BurstyEvents", "Index.BurstyEventIDs", "Index.TopBursty", "Index.pushChildren"},
		"internal/segstore": {"Snapshot.burstiness", "memHead.burstiness", "Snapshot.segsInWindow", "Snapshot.summedLevels", "summedLevel.Burstiness"},
	}
	noTauCheck := map[string]bool{"internal/cmpbe": true, "internal/dyadic": true, "internal/segstore": true}
	noSpanBuilt := map[string]bool{"internal/cmpbe": true, "internal/dyadic": true}
	found := map[string]bool{}
	eachProductFile(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "BurstWindow" && dir == "internal/pbe" {
					t.Errorf("%s declares the retired BurstWindow; take a Span", rel)
				}
			case *ast.SelectorExpr:
				switch s := types.ExprString(n); {
				case s == "pbe.BurstWindow":
					t.Errorf("%s names the retired pbe.BurstWindow; take a pbe.Span", rel)
				case s == "pbe.NewSpan" && noSpanBuilt[dir]:
					t.Errorf("%s builds a Span; take the caller's pbe.Span", rel)
				}
			case *ast.BinaryExpr:
				if id, ok := n.X.(*ast.Ident); ok && noTauCheck[dir] && strings.EqualFold(id.Name, "tau") && n.Op == token.LEQ {
					t.Errorf("%s checks %s; build a pbe.Span where the query enters", rel, types.ExprString(n))
				}
			case *ast.FuncDecl:
				name := n.Name.Name
				if n.Recv != nil && len(n.Recv.List) == 1 {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				if !slices.Contains(kernels[dir], name) {
					break
				}
				found[dir+" "+name] = true
				span := false
				for _, p := range n.Type.Params.List {
					if s := types.ExprString(p.Type); s == "Span" || s == "pbe.Span" {
						span = true
					}
				}
				if !span {
					t.Errorf("%s: kernel %s takes no pbe.Span", rel, name)
				}
			}
			return true
		})
	})
	for dir, names := range kernels {
		for _, name := range names {
			if !found[dir+" "+name] {
				t.Errorf("%s: kernel %s not found; update this guard with its new name", dir, name)
			}
		}
	}
}

// TestOneQueryEntry: a query's span is built once, where it enters. No
// function that takes a pbe.Span builds another with pbe.NewSpan; every
// method of wire.Querier that takes arguments takes a pbe.Span and none a
// raw τ; each wire.Answer* names pbe.NewSpan once, and only AnswerPoint asks
// for a point query, so a BURSTY-EVENTS hit keeps the score its walk found.
// The answer values are declared once too: outside internal/pbe,
// internal/dyadic and the internal/exact oracle, no non-test file declares a
// {Start, End int64} or an {Event uint64; Burstiness float64} struct but
// wire.EventHit, the tagged codec form, and kleinberg.Interval, the
// baseline's closed interval [Start, End].
func TestOneQueryEntry(t *testing.T) {
	isSpan := func(e ast.Expr) bool { s := types.ExprString(e); return s == "pbe.Span" || s == "Span" }
	takesSpan := func(ft *ast.FuncType) bool {
		return slices.ContainsFunc(ft.Params.List, func(p *ast.Field) bool { return isSpan(p.Type) })
	}
	fieldSet := func(st *ast.StructType) string {
		var fs []string
		for _, f := range st.Fields.List {
			for _, n := range f.Names {
				fs = append(fs, n.Name+" "+types.ExprString(f.Type))
			}
		}
		slices.Sort(fs)
		return strings.Join(fs, "; ")
	}
	answerValues := map[string]bool{"End int64; Start int64": true, "Burstiness float64; Event uint64": true}
	valueHomes := map[string]bool{"internal/pbe": true, "internal/dyadic": true, "internal/exact": true}
	otherValues := map[string]bool{"internal/wire EventHit": true, "internal/kleinberg Interval": true}
	querier := false
	eachProductFile(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				newSpans, points := 0, 0
				ast.Inspect(n, func(m ast.Node) bool {
					if sel, ok := m.(*ast.SelectorExpr); ok {
						switch s := types.ExprString(sel); {
						case s == "pbe.NewSpan" || s == "NewSpan" && dir == "internal/pbe":
							newSpans++
						case sel.Sel.Name == "BurstinessOver":
							points++
						}
					}
					return true
				})
				if newSpans > 0 && takesSpan(n.Type) {
					t.Errorf("%s: %s takes a pbe.Span and builds another; answer over the caller's", rel, n.Name.Name)
				}
				if dir == "internal/wire" && strings.HasPrefix(n.Name.Name, "Answer") && n.Recv == nil {
					if newSpans != 1 {
						t.Errorf("%s: %s names pbe.NewSpan %d times; build the query's span once", rel, n.Name.Name, newSpans)
					}
					if points > 0 && n.Name.Name != "AnswerPoint" {
						t.Errorf("%s: %s issues a point query; the search's hits carry their scores", rel, n.Name.Name)
					}
				}
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok && dir == "internal/wire" && n.Name.Name == "Querier" {
					querier = true
					for _, m := range it.Methods.List {
						ft, ok := m.Type.(*ast.FuncType)
						if !ok || len(m.Names) == 0 {
							continue
						}
						if len(ft.Params.List) > 0 && !takesSpan(ft) {
							t.Errorf("%s: Querier.%s takes no pbe.Span", rel, m.Names[0].Name)
						}
						for _, p := range ft.Params.List {
							for _, name := range p.Names {
								if strings.EqualFold(name.Name, "tau") {
									t.Errorf("%s: Querier.%s takes a raw τ; take a pbe.Span", rel, m.Names[0].Name)
								}
							}
						}
					}
				}
				st, ok := n.Type.(*ast.StructType)
				if ok && !valueHomes[dir] && answerValues[fieldSet(st)] && !otherValues[dir+" "+n.Name.Name] {
					t.Errorf("%s declares %s as {%s}; use pbe.TimeRange or dyadic.EventScore", rel, n.Name.Name, fieldSet(st))
				}
			}
			return true
		})
	})
	if !querier {
		t.Error("internal/wire declares no Querier; update this guard with its new name")
	}
}

// TestOneRowCombination: CM-PBE's combination rule — sum each row over the
// time-disjoint parts, take the median once — has one home, cmpbe.Rows, which
// a Detector and the segmented store both answer by. Neither the store nor
// the facade (histburst.go) reads a cell's Estimate or Estimate3 or calls
// cmpbe.Median, and no file, test or not, names the retired per-segment cell
// plumbing AppendEventCells or the store's row cap maxRows.
func TestOneRowCombination(t *testing.T) {
	eachGoFile(t, true, func(rel string, f *ast.File) {
		product := !strings.HasSuffix(rel, "_test.go") &&
			(filepath.ToSlash(filepath.Dir(rel)) == "internal/segstore" || rel == "histburst.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "AppendEventCells" || n.Name == "maxRows" {
					t.Errorf("%s names the retired %s; combine rows through cmpbe.Rows", rel, n.Name)
				}
			case *ast.SelectorExpr:
				if s := types.ExprString(n); product && (s == "cmpbe.Median" || n.Sel.Name == "Estimate" || n.Sel.Name == "Estimate3") {
					t.Errorf("%s reads %s; combine rows through cmpbe.Rows", rel, s)
				}
			}
			return true
		})
	})
}

// TestOnePackedReader: a PBE-2 cell's closed segments are packed fields in
// one byte array, Summary.cols, and one accessor reads and writes them:
// internal/pbe2/column.go. In internal/pbe2's non-test code no other file
// names the array, and no other function loads a word from bytes
// (binary.LittleEndian), so a change to the layout is a change to that file.
func TestOnePackedReader(t *testing.T) {
	const accessor = "internal/pbe2/column.go"
	loads := 0
	eachProductFile(t, func(rel string, f *ast.File) {
		rel = filepath.ToSlash(rel)
		if filepath.ToSlash(filepath.Dir(rel)) != "internal/pbe2" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == "cols" && rel != accessor:
				t.Errorf("%s names the packed columns (%s); read them through %s", rel, types.ExprString(sel), accessor)
			case types.ExprString(sel.X) == "binary.LittleEndian":
				if rel != accessor {
					t.Errorf("%s loads from bytes (%s); only %s reads packed storage", rel, types.ExprString(sel), accessor)
				}
				loads++
			}
			return true
		})
	})
	if loads == 0 {
		t.Errorf("nothing in internal/pbe2 loads a packed field; the guard has lost its subject")
	}
}

// TestOneLineFormRule: a PBE-2 segment is held in one of three forms — its
// value on the 2⁻⁸ grid, a float64 value, or escaped whole — and lineForm
// alone picks which, for memory and file alike: the cell block writes each
// record in the form its cell holds it, and its decoder replays lineForm
// through a plan. In internal/pbe2's non-test code the form constants are
// named outside lineForm only to compare a form with one — a case label, or
// an operand of == or != — so no other function can pick a form; and the
// names of the file's own 32-bit rule, which once replayed the forms a
// second way, are declared nowhere in the module.
func TestOneLineFormRule(t *testing.T) {
	forms := map[string]bool{"narrowValue": true, "floatValue": true, "escapedValue": true}
	retired := map[string]bool{"fileForms": true, "narrowY": true, "blockEscaped": true, "blockFloatLine": true}
	picked := 0
	eachGoFile(t, true, func(rel string, f *ast.File) {
		rel = filepath.ToSlash(rel)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && retired[id.Name] {
				t.Errorf("%s names %s, the file's second line-form rule; lineForm is the only one", rel, id.Name)
			}
			return true
		})
		if filepath.Dir(rel) != "internal/pbe2" || strings.HasSuffix(rel, "_test.go") {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			compared := map[*ast.Ident]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var operands []ast.Expr
				switch n := n.(type) {
				case *ast.CaseClause:
					operands = n.List
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						operands = []ast.Expr{n.X, n.Y}
					}
				}
				for _, e := range operands {
					if id, ok := e.(*ast.Ident); ok {
						compared[id] = true
					}
				}
				return true
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				switch {
				case !ok || !forms[id.Name]:
				case fn.Name.Name == "lineForm":
					picked++
				case !compared[id]:
					t.Errorf("%s: %s names the form %s other than to compare with it; only lineForm picks a segment's form", rel, fn.Name.Name, id.Name)
				}
				return true
			})
		}
	})
	if picked == 0 {
		t.Error("lineForm names no form in internal/pbe2; the guard has lost its subject")
	}
}

// TestOneLineFormula: a stored PBE-2 line is evaluated by one formula,
// segVal's, which every query, the downsampling cursor, the open window's
// line and Segments come through. In internal/pbe2's non-test code no other
// function multiplies a slope field — A of a Segment, a of a stored line —
// and a coefficient field (A, B, Y, a, y) is changed in place only by the
// merge's lift, appendLifted, for a line the integer lift cannot carry.
func TestOneLineFormula(t *testing.T) {
	slope := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.CallExpr:
				if len(x.Args) == 1 { // a conversion
					e = x.Args[0]
					continue
				}
			case *ast.SelectorExpr:
				return x.Sel.Name == "A" || x.Sel.Name == "a"
			}
			return false
		}
	}
	coefficient := map[string]bool{"A": true, "B": true, "Y": true, "a": true, "y": true}
	evaluated := 0
	eachProductFile(t, func(rel string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(rel)) != "internal/pbe2" {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op == token.MUL && (slope(n.X) || slope(n.Y)) {
						if name != "segVal" {
							t.Errorf("%s: %s multiplies a slope, %s; only segVal evaluates a line", rel, name, types.ExprString(n))
						}
						evaluated++
					}
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && coefficient[sel.Sel.Name] && name != "appendLifted" {
							t.Errorf("%s: %s changes the coefficient %s in place; only the merge's lift does", rel, name, types.ExprString(sel))
						}
					}
				}
				return true
			})
		}
	})
	if evaluated == 0 {
		t.Error("no function in internal/pbe2 evaluates a line; the guard has lost its subject")
	}
}
