package ser

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDocsNameDeclaredIdentifiers holds the prose docs to the code:
// every inline code span of README.md and docs/*.md that names
// `pkg.Ident`, where pkg is ser, serclient or a directory under
// internal/ and Ident is exported, must name a func, method, type,
// struct field, var or const declared in that package's non-test
// files; a further component (`strike.Delta.BaseWS`) must be a method
// or field the package declares. Lower-case names after a package
// prefix are stage and fault-point labels (`strike.electrical`) and
// are not checked, nor is anything inside fenced code blocks.
//
// A span naming an unqualified `Type.Member` (`Analysis.WSTable`,
// `(*Analysis).WSTable`) is checked the same way when some scanned
// package declares a type named Type: one such package must also
// declare every further component. A first component that no package
// declares as a type is a field path (`BaseAnalysis.Delays`) and is
// not checked.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	dirs := map[string]string{"ser": ".", "serclient": "serclient"}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = filepath.Join("internal", e.Name())
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md"}, docs...)

	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`([^`\n]+)`")
	ref := regexp.MustCompile(`(?:^|[^\w./-])([a-z]\w*)((?:\.[A-Z]\w*)+)`)
	unqualified := regexp.MustCompile(`(?:^|[^\w./*(-])(?:\(\*)?([A-Z]\w*)\)?((?:\.[A-Z]\w*)+)`)
	declared := map[string]map[string]bool{}
	types := map[string]map[string]bool{}
	for pkg, dir := range dirs {
		declared[pkg], types[pkg] = declaredNames(t, dir)
	}
	checked, checkedUnqualified := 0, 0
	for _, path := range docs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllString(string(b), "")
		for _, sp := range span.FindAllStringSubmatch(text, -1) {
			for _, m := range ref.FindAllStringSubmatch(sp[1], -1) {
				pkg := m[1]
				dir, ok := dirs[pkg]
				if !ok {
					continue
				}
				for _, id := range strings.Split(m[2][1:], ".") {
					if !declared[pkg][id] {
						t.Errorf("%s: `%s` names %s.%s, which %s does not declare", path, sp[1], pkg, id, dir)
					}
				}
				checked++
			}
			for _, m := range unqualified.FindAllStringSubmatch(sp[1], -1) {
				var owners []string
				for pkg := range dirs {
					if types[pkg][m[1]] {
						owners = append(owners, pkg)
					}
				}
				if len(owners) == 0 {
					continue
				}
				sort.Strings(owners)
				for _, id := range strings.Split(m[2][1:], ".") {
					found := false
					for _, pkg := range owners {
						found = found || declared[pkg][id]
					}
					if !found {
						t.Errorf("%s: `%s` names %s.%s, which no package declaring type %s (%s) declares", path, sp[1], m[1], id, m[1], strings.Join(owners, ", "))
					}
				}
				checkedUnqualified++
			}
		}
	}
	if checked == 0 || checkedUnqualified == 0 {
		t.Fatalf("found %d package-qualified and %d unqualified identifiers in the docs; the scan is broken", checked, checkedUnqualified)
	}
}

// declaredNames returns every name the non-test Go files of dir
// declare at top level (funcs, methods, types, vars, consts) plus the
// fields and interface methods of their types, and the type names
// alone.
func declaredNames(t *testing.T, dir string) (names, types map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names, types = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						types[s.Name.Name] = true
						ast.Inspect(s.Type, func(n ast.Node) bool {
							if fl, ok := n.(*ast.Field); ok {
								for _, id := range fl.Names {
									names[id.Name] = true
								}
							}
							return true
						})
					}
				}
			}
		}
	}
	return names, types
}
