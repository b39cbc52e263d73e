// Documentation and formatting lints. TestExportedSymbolsDocumented
// enforces that every exported symbol in the trace, pipeline, and core
// packages carries a doc comment — the trace wire format and the profile
// model are contracts (docs/TRACE_FORMAT.md, docs/VALIDATION.md), and an
// undocumented export there is an API bug. TestGofmt enforces canonical
// formatting on the same trees. TestRequiredDocs keeps the documentation
// set itself from rotting: the required documents must exist, be indexed
// in docs/README.md, and every relative markdown link in the repo must
// resolve. scripts/verify.sh runs all of these via `go test ./...` and
// re-checks formatting repo-wide.
package repro_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// lintDirs are the directories whose exported symbols must be documented.
var lintDirs = []string{
	"internal/block",
	"internal/trace",
	"internal/trace/pipeline",
	"internal/core",
	"internal/faultinject",
	"internal/telemetry",
	"internal/profflag",
	"internal/obs",
	"internal/daemon",
	"internal/invariant",
	"internal/fit",
	"internal/report",
}

// requiredDocs are the documents the repo promises to keep: each must
// exist, be non-trivial, and be linked from the docs/README.md index.
var requiredDocs = []string{
	"docs/ALGORITHM.md",
	"docs/ARCHITECTURE.md",
	"docs/CORRECTNESS.md",
	"docs/ISPL.md",
	"docs/OBSERVABILITY.md",
	"docs/PERFORMANCE.md",
	"docs/TRACE_FORMAT.md",
	"docs/VALIDATION.md",
}

func TestRequiredDocs(t *testing.T) {
	index, err := os.ReadFile("docs/README.md")
	if err != nil {
		t.Fatalf("docs index missing: %v", err)
	}
	for _, doc := range requiredDocs {
		info, err := os.Stat(doc)
		if err != nil {
			t.Errorf("required document %s: %v", doc, err)
			continue
		}
		if info.Size() < 512 {
			t.Errorf("required document %s is a stub (%d bytes)", doc, info.Size())
		}
		if base := filepath.Base(doc); !strings.Contains(string(index), "("+base+")") {
			t.Errorf("docs/README.md does not index %s", doc)
		}
	}
	// The root README must route newcomers to the architecture tour.
	root, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(root), "docs/ARCHITECTURE.md") {
		t.Error("README.md does not link docs/ARCHITECTURE.md")
	}
}

// mdLink matches inline markdown links and captures the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// benchCite matches an inline code span or a link target; benchFile
// matches a BENCH file named inside one. experimentRun captures the id list
// of an `aprof-experiments ... -run <ids>` command and experimentBare the id
// of an `aprof-experiments <id>` command that ends there, a form the
// command, which takes flags only, rejects. codeSpan matches an inline code
// span and pkgRef a `pkg.Name` reference inside one.
var (
	benchCite      = regexp.MustCompile("`[^`\n]*`|\\]\\([^)\\s]*\\)")
	benchFile      = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	experimentRun  = regexp.MustCompile("aprof-experiments\\b[^`\n]*?[ \t]-run[ \t=]+([A-Za-z0-9_.,]+)")
	experimentBare = regexp.MustCompile("(?m)aprof-experiments[ \t]+([A-Za-z0-9_.]+)[ \t]*(?:$|[`#|;)])")
	codeSpan       = regexp.MustCompile("`[^`\n]+`")
	pkgRef         = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
)

// currentDoc reports whether the markdown file describes the tree as it
// is, rather than its history (ROADMAP.md, CHANGES.md and the other root
// documents, which may name what is deleted).
func currentDoc(file string) bool {
	return file == "README.md" || file == "EXPERIMENTS.md" || file == "DESIGN.md" || filepath.Dir(file) == "docs"
}

// repoDecls maps the name of every non-main package of the module to the
// identifiers that its non-test files declare at top level (methods
// excluded). The bench module and hidden directories are not swept.
func repoDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	pkgs := make(map[string]map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		names := pkgs[f.Name.Name]
		if names == nil {
			names = make(map[string]bool)
			pkgs[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestDocLinksResolve sweeps every markdown file at the repo root and
// under docs/ for relative links to files and verifies each target
// exists, so cross-references cannot silently rot as the tree moves. In
// the current documents (currentDoc) more must hold: a BENCH file named in
// code or in a link must exist at the root and record under env the
// num_cpu it was measured with; an aprof-experiments command must give
// its ids with -run and name experiments that exist (or "all"); and a
// backticked `pkg.Name`, pkg a package of this module, must name an
// identifier that pkg's non-test files declare. The other root documents,
// ROADMAP.md and CHANGES.md among them, are history and may name deleted
// ones.
func TestDocLinksResolve(t *testing.T) {
	decls := repoDecls(t)
	var files []string
	for _, pat := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < len(requiredDocs) {
		t.Fatalf("markdown sweep found only %d files", len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(src), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue // intra-document anchor
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead link %q (%s does not exist)", file, m[1], resolved)
			}
		}
		if !currentDoc(file) {
			continue
		}
		for _, cite := range benchCite.FindAllString(string(src), -1) {
			for _, name := range benchFile.FindAllString(cite, -1) {
				if err := checkBenchFile(name); err != nil {
					t.Errorf("%s cites %s: %v", file, name, err)
				}
			}
		}
		for _, m := range experimentRun.FindAllStringSubmatch(string(src), -1) {
			for _, id := range strings.Split(m[1], ",") {
				if _, err := experiments.Get(id); err != nil && id != "all" {
					t.Errorf("%s: %q cites experiment %q, which does not exist", file, m[0], id)
				}
			}
		}
		for _, m := range experimentBare.FindAllString(string(src), -1) {
			t.Errorf("%s: %q gives an experiment id without -run, which aprof-experiments rejects", file, m)
		}
		for _, span := range codeSpan.FindAllString(string(src), -1) {
			for _, m := range pkgRef.FindAllStringSubmatch(span, -1) {
				if names, ok := decls[m[1]]; ok && !names[m[2]] {
					t.Errorf("%s: %s names %s.%s, which package %s does not declare", file, span, m[1], m[2], m[1])
				}
			}
		}
	}
}

// checkBenchFile reports why the BENCH file at the repo root cannot back a
// performance claim: it is missing, is not the benchmark's JSON, or records
// no num_cpu under env.
func checkBenchFile(name string) error {
	data, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	var v struct {
		Env struct {
			NumCPU int `json:"num_cpu"`
		} `json:"env"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if v.Env.NumCPU <= 0 {
		return fmt.Errorf("no env.num_cpu")
	}
	return nil
}

func lintSources(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		t.Fatalf("no non-test Go sources under %s", dir)
	}
	return files
}

func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range lintDirs {
		for _, path := range lintSources(t, dir) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, decl := range f.Decls {
				checkDeclDocumented(t, fset, decl)
			}
		}
	}
}

func checkDeclDocumented(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	missing := func(pos token.Pos, what, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), what, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return
		}
		if d.Doc == nil {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			missing(d.Pos(), kind, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					missing(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					// A doc comment on the const/var group covers
					// every name it declares.
					if n.IsExported() && d.Doc == nil && s.Doc == nil {
						missing(n.Pos(), "value", n.Name)
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the package API).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			typ = tt.X
		case *ast.IndexListExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func TestGofmt(t *testing.T) {
	for _, dir := range lintDirs {
		for _, path := range lintSources(t, dir) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading %s: %v", path, err)
			}
			formatted, err := format.Source(src)
			if err != nil {
				t.Fatalf("formatting %s: %v", path, err)
			}
			if string(src) != string(formatted) {
				t.Errorf("%s: not gofmt-formatted (run gofmt -w %s)", path, path)
			}
		}
	}
}
