package croesus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names the exported declarations that
// TestNoExportOnlyTestsReach accepts although no non-test code names them,
// keyed "<dir>.<Recv>.<Name>" for a method (or "<dir>.<Name>" for a
// function, const, var or type), each with its reason.
var unreachedAllowed = map[string]string{
	"internal/lock.Manager.Outstanding":        "the lock-leak assertion of five packages' tests: a read of the live lock table",
	"internal/randsrc.source.Int63":            "rand.Source interface method, called through math/rand",
	"internal/scenario.Duration.MarshalJSON":   "json.Marshaler interface method, called through encoding/json",
	"internal/scenario.Duration.UnmarshalJSON": "json.Unmarshaler interface method, called through encoding/json",
}

// TestNoExportOnlyTestsReach guards against production code that only
// tests reach: every exported top-level function, method, const, var or
// type declared in non-test Go under internal/, cmd/ or benchmark/ must be
// named by some non-test Go file in the module other than by its own
// declaration (a call, a method value, an interface method of the same
// name, a conversion, ...). A name is matched as
// an identifier, so comments and strings never count as a use. Delete an
// export that fails here, move it into a _test.go helper, or add it to
// unreachedAllowed with the reason it stays.
func TestNoExportOnlyTestsReach(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier → occurrences in non-test Go
	type decl struct{ key, pos string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		scanned := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "benchmark/")
		dir := filepath.ToSlash(filepath.Dir(path)) + "."
		declare := func(key string, id *ast.Ident) {
			own[id] = true
			if scanned {
				decls = append(decls, decl{key: key + id.Name, pos: fset.Position(id.Pos()).String()})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if !dd.Name.IsExported() {
					continue
				}
				key := dir
				if dd.Recv != nil && len(dd.Recv.List) > 0 {
					key += recvName(dd.Recv.List[0].Type) + "."
				}
				declare(key, dd.Name)
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							declare(dir, spec.Name)
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.IsExported() {
								declare(dir, id)
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var unreached []string
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if uses[name] > 0 {
			continue
		}
		if _, ok := unreachedAllowed[d.key]; ok {
			continue
		}
		unreached = append(unreached, d.key+" ("+d.pos+")")
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("exported but named by no non-test code: %s", u)
	}
	for key := range unreachedAllowed {
		if !seen[key] {
			t.Errorf("unreachedAllowed names %s, which is no longer declared", key)
		}
	}
}

// recvName is a method receiver's base type name: T for T, *T, T[K] and *T[K].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
