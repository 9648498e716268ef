package ser

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
	declared := map[string]map[string]bool{}
	checked := 0
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
				if declared[pkg] == nil {
					declared[pkg] = declaredNames(t, dir)
				}
				for _, id := range strings.Split(m[2][1:], ".") {
					if !declared[pkg][id] {
						t.Errorf("%s: `%s` names %s.%s, which %s does not declare", path, sp[1], pkg, id, dir)
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no package-qualified identifier found in the docs; the scan is broken")
	}
}

// declaredNames returns every name the non-test Go files of dir
// declare at top level (funcs, methods, types, vars, consts) plus the
// fields and interface methods of their types.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
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
	return names
}
