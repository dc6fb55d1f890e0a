package deepod

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The README drift tests hold README's metric-family table and its
// tteserve flags to the code, in both directions: nothing the code exposes
// goes undocumented, and nothing documented is gone from the code.

var (
	// familyLit is a metric family name as a complete Go string literal.
	familyLit = regexp.MustCompile(`"(tte_[a-z0-9_]+)"`)
	// familyCell is a family (or a `tte_go_*`-style prefix) named in the
	// first cell of a metric-table row.
	familyCell = regexp.MustCompile("`(tte_[a-z0-9_]+)(\\*?)`")
	// flagDef is a flag definition: flag.Int("name", ...), fs.String(...).
	flagDef = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)\("([a-z][a-z0-9-]*)"`)
	// flagRef is a flag named in README prose or tables: `-name` or
	// `-prefix-*`.
	flagRef = regexp.MustCompile("`-([a-z][a-z0-9-]*)(\\*?)")
	// flagArg is a flag on a command line.
	flagArg = regexp.MustCompile(`\s-([a-z][a-z0-9-]*)`)
)

// builtinFlags are flags README may name that no command defines: the
// flag package's help and the go tool's own.
var builtinFlags = map[string]bool{"h": true, "help": true, "race": true, "short": true, "run": true, "bench": true, "fuzz": true}

func readREADME(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sourceFiles returns the contents of every non-test Go file under the
// given roots.
func sourceFiles(t *testing.T, roots ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			out[path] = string(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// hasPrefixed reports whether any of names starts with prefix.
func hasPrefixed(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// extendsAny reports whether name starts with any of prefixes.
func extendsAny(name string, prefixes map[string]bool) bool {
	for p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// registeredFamilies returns every metric family the code names as a
// complete string literal.
func registeredFamilies(t *testing.T) map[string]bool {
	t.Helper()
	code := map[string]bool{}
	for _, src := range sourceFiles(t, ".") {
		for _, m := range familyLit.FindAllStringSubmatch(src, -1) {
			code[m[1]] = true
		}
	}
	if len(code) == 0 {
		t.Fatal("no tte_* family found in the code")
	}
	return code
}

func TestREADMEMetricFamilies(t *testing.T) {
	code := registeredFamilies(t)

	exact, prefixes := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(readREADME(t), "\n") {
		if !strings.HasPrefix(line, "| `tte_") {
			continue
		}
		first := strings.SplitN(line, "|", 3)[1]
		for _, m := range familyCell.FindAllStringSubmatch(first, -1) {
			if m[2] == "*" {
				prefixes[m[1]] = true
			} else {
				exact[m[1]] = true
			}
		}
	}
	if len(exact) == 0 {
		t.Fatal("README has no metric-family table")
	}

	for name := range code {
		if !exact[name] && !extendsAny(name, prefixes) {
			t.Errorf("family %s is registered in the code but has no row in README's metric table", name)
		}
	}
	for name := range exact {
		if !code[name] {
			t.Errorf("README's metric table lists %s, which no code registers", name)
		}
	}
	for p := range prefixes {
		if !hasPrefixed(code, p) {
			t.Errorf("README's metric table lists %s*, which matches no registered family", p)
		}
	}
}

// TestREADMEProbeResults holds the values README's metric table lists for
// tte_traffic_probes_total{result} to the ones the code registers, both
// ways.
func TestREADMEProbeResults(t *testing.T) {
	registered := regexp.MustCompile(`"tte_traffic_probes_total",\s*"result",\s*"([a-z_]+)"`)
	code := map[string]bool{}
	for _, src := range sourceFiles(t, "internal") {
		for _, m := range registered.FindAllStringSubmatch(src, -1) {
			code[m[1]] = true
		}
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(readREADME(t), "\n") {
		if !strings.HasPrefix(line, "| `tte_traffic_probes_total` |") {
			continue
		}
		cells := strings.Split(line, "|")
		meaning := cells[len(cells)-2]
		for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(meaning, -1) {
			listed[m[1]] = true
		}
	}
	if len(code) == 0 || len(listed) == 0 {
		t.Fatalf("found %d registered and %d listed results", len(code), len(listed))
	}
	for v := range code {
		if !listed[v] {
			t.Errorf("tte_traffic_probes_total{result=%q} is registered but not listed in README", v)
		}
	}
	for v := range listed {
		if !code[v] {
			t.Errorf("README lists tte_traffic_probes_total{result=%q}, which no code registers", v)
		}
	}
}

func TestREADMETteserveFlags(t *testing.T) {
	serveSrc := sourceFiles(t, filepath.Join("cmd", "tteserve"))
	serveFlags := map[string]bool{}
	for _, src := range serveSrc {
		for _, m := range flagDef.FindAllStringSubmatch(src, -1) {
			serveFlags[m[1]] = true
		}
	}
	if len(serveFlags) == 0 {
		t.Fatal("no tteserve flag found")
	}
	// Flags of every command in the repo: README may name any of them.
	known := map[string]bool{}
	for name := range builtinFlags {
		known[name] = true
	}
	for _, src := range sourceFiles(t, "cmd", "bench") {
		for _, m := range flagDef.FindAllStringSubmatch(src, -1) {
			known[m[1]] = true
		}
	}

	readme := readREADME(t)
	for name := range serveFlags {
		if !strings.Contains(readme, "`-"+name+"`") {
			t.Errorf("tteserve flag -%s is not documented in README as `-%s`", name, name)
		}
	}
	for _, m := range flagRef.FindAllStringSubmatch(readme, -1) {
		name, prefix := m[1], m[2] == "*"
		if prefix && !hasPrefixed(known, name) || !prefix && !known[name] {
			t.Errorf("README names flag -%s%s, which no command defines", name, m[2])
		}
	}
	// Command lines that run tteserve may pass only its own flags.
	for _, line := range strings.Split(readme, "\n") {
		i := strings.Index(line, "tteserve -")
		if i < 0 {
			continue
		}
		for _, m := range flagArg.FindAllStringSubmatch(line[i:], -1) {
			if !serveFlags[m[1]] {
				t.Errorf("README runs tteserve with -%s, which it does not define: %q", m[1], line)
			}
		}
	}
}

// maxTteserveFlags is the bar on tteserve's flag count: a flag stays only
// where deployments differ (what is served and where, which subsystems
// run, sizes and rates fitted to the host); every other value is fixed
// once, in the package that applies it.
const maxTteserveFlags = 19

func TestTteserveFlagCount(t *testing.T) {
	flags := map[string]bool{}
	for _, src := range sourceFiles(t, filepath.Join("cmd", "tteserve")) {
		for _, m := range flagDef.FindAllStringSubmatch(src, -1) {
			flags[m[1]] = true
		}
	}
	if len(flags) > maxTteserveFlags {
		t.Errorf("tteserve defines %d flags, want at most %d", len(flags), maxTteserveFlags)
	}
}

// TestConfigFieldsAreSet fails when an exported field of a struct type
// named *Config or *Options is set by no Go file in the module, tests
// included: such a field is a knob nobody turns, and its default belongs
// in an unexported constant. The scan is by name — a field counts as set
// when any file writes a field of that name, on whatever type — and a
// write is a composite-literal key, an assignment or ++/-- through a
// selector, or an address taken with &. An assignment inside an if whose
// condition reads the same selector is a default being filled, not a
// setting. A field with a struct tag is set by its decoder.
func TestConfigFieldsAreSet(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]string{} // field name → "pkg.Type.Field" (first seen)
	set := map[string]bool{}
	for _, f := range files {
		isTest := strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if isTest || !ok || !(strings.HasSuffix(n.Name.Name, "Config") || strings.HasSuffix(n.Name.Name, "Options")) {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if !name.IsExported() {
							continue
						}
						if fld.Tag != nil {
							set[name.Name] = true
						}
						if _, ok := declared[name.Name]; !ok {
							declared[name.Name] = f.Name.Name + "." + n.Name.Name + "." + name.Name
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set[id.Name] = true
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					set[sel.Sel.Name] = true
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					set[sel.Sel.Name] = true
				}
			case *ast.AssignStmt:
				var cond ast.Expr
				if k := len(stack); k >= 3 {
					if ifs, ok := stack[k-3].(*ast.IfStmt); ok && ifs.Body == stack[k-2] {
						cond = ifs.Cond
					}
				}
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && !reads(cond, sel) {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	var unset []string
	for name, where := range declared {
		if !set[name] {
			unset = append(unset, where)
		}
	}
	sort.Strings(unset)
	for _, where := range unset {
		t.Errorf("%s is set by no Go file: fold it into a constant", where)
	}
}

// reads reports whether expression e mentions the selector sel.
func reads(e ast.Expr, sel *ast.SelectorExpr) bool {
	if e == nil {
		return false
	}
	want, found := types.ExprString(sel), false
	ast.Inspect(e, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && types.ExprString(s) == want {
			found = true
		}
		return !found
	})
	return found
}
