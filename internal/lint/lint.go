// Package lint is the project's static-enforcement layer: a small
// go/analysis-shaped framework (stdlib-only — no golang.org/x/tools
// dependency) plus six project-specific analyzers that check, at `make
// lint` time, the rules that make the repo's two load-bearing runtime
// invariants true — trajectories bitwise identical across every
// decomposition/transport/worker-count, and 0 allocs/op steady-state steps:
//
//   - noalloc:   functions annotated //mlmd:hotpath must not contain
//     hidden allocation (bare make, growing append, map literals,
//     interface boxing, capturing go closures, defer in loops)
//   - detrange:  no range over a map feeding a floating-point
//     accumulation, a value append, or a cluster.Comm call (map
//     iteration order is the classic silent determinism killer)
//   - poolonly:  no raw go statements outside internal/par and the
//     whitelisted transport reader/heartbeat goroutines in
//     internal/cluster (the PR 1 pool-only concurrency invariant)
//   - ascendsum: per-peer/per-worker partials must be reduced in a
//     sorted/ascending index order, never channel-receipt or
//     unsorted-map-key order
//   - wiresafe:  decoders in internal/cluster/wire and internal/mlmdio
//     must validate length/count fields against a constant bound before
//     any make sized by wire data (validate-before-allocate)
//   - rowexp:    functions annotated //mlmd:hotpath must not use math.Exp;
//     step paths take exponentials a row at a time (linalg.ExpRows,
//     linalg.SiLURows), whose kernel equals math.Exp bit for bit
//
// cmd/mlmdlint is the driver. docs/lint.md documents the //mlmd:hotpath
// annotation and the //lint:allow suppression grammar; ARCHITECTURE.md maps
// each analyzer to the runtime contract it guards.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position, before
// suppression filtering.
type Diagnostic struct {
	// Pos locates the finding in the package's FileSet.
	Pos token.Pos
	// Message explains the violated contract and the escape reason.
	Message string
}

// Analyzer is one static check. The design deliberately mirrors
// golang.org/x/tools/go/analysis so the analyzers can migrate to the real
// multichecker wholesale if the dependency ever lands in the module cache.
type Analyzer struct {
	// Name is the analyzer's identifier, used in findings and in
	// //lint:allow suppressions.
	Name string
	// Doc is the one-paragraph description printed by `mlmdlint -help`.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package
	// Analyzer is the check this pass runs.
	Analyzer *Analyzer

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is one post-suppression result of a Run, positioned for printing.
type Finding struct {
	// Position is the resolved file:line:col of the finding.
	Position token.Position
	// Analyzer names the check that produced the finding ("lint" for
	// suppression-grammar errors found by the framework itself).
	Analyzer string
	// Message explains the violation.
	Message string
}

// String formats the finding the way go vet does: file:line:col: analyzer: msg.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoAlloc, DetRange, PoolOnly, AscendSum, WireSafe, RowExp}
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	file     string // resolved filename
	line     int    // line the comment sits on
	pos      token.Pos
	used     bool
	// malformed holds a grammar error (missing analyzer or reason); such a
	// directive suppresses nothing and is itself reported.
	malformed string
}

// allowPrefix opens every suppression comment. Grammar:
//
//	//lint:allow <analyzer> <reason...>
//
// The reason is mandatory: a suppression that doesn't say why is itself a
// finding. The directive on line L covers findings on L and L+1, so it can
// trail the flagged statement or sit on its own line directly above it.
const allowPrefix = "lint:allow"

// collectAllows parses every //lint:allow directive in the package.
func collectAllows(pkg *Package, known map[string]bool) []*allowDirective {
	var out []*allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				d := &allowDirective{file: posn.Filename, line: posn.Line, pos: c.Pos()}
				fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
				switch {
				case len(fields) == 0:
					d.malformed = "missing analyzer name and reason (grammar: //lint:allow <analyzer> <reason>)"
				case !known[fields[0]]:
					d.malformed = fmt.Sprintf("unknown analyzer %q (grammar: //lint:allow <analyzer> <reason>)", fields[0])
				case len(fields) == 1:
					d.malformed = fmt.Sprintf("suppression of %q is missing its mandatory reason", fields[0])
				default:
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// Run applies the analyzers to every package and returns the surviving
// findings sorted by position. Suppressions (//lint:allow) filter matching
// findings; malformed or unused-analyzer suppressions are reported as
// findings of the pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	// Suppressions may name any analyzer of the suite, not just the ones
	// this Run executes (the fixture tests run analyzers one at a time).
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		allows := collectAllows(pkg, known)
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Analyzer: a}
			a.Run(pass)
			for _, d := range pass.diags {
				posn := pkg.Fset.Position(d.Pos)
				if suppressed(allows, a.Name, posn) {
					continue
				}
				findings = append(findings, Finding{Position: posn, Analyzer: a.Name, Message: d.Message})
			}
		}
		for _, d := range allows {
			if d.malformed != "" {
				findings = append(findings, Finding{
					Position: pkg.Fset.Position(d.pos), Analyzer: "lint", Message: d.malformed,
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// suppressed reports whether an allow directive for analyzer covers posn
// (same file, same line or the line directly above).
func suppressed(allows []*allowDirective, analyzer string, posn token.Position) bool {
	for _, d := range allows {
		if d.malformed != "" || d.analyzer != analyzer || d.file != posn.Filename {
			continue
		}
		if d.line == posn.Line || d.line == posn.Line-1 {
			d.used = true
			return true
		}
	}
	return false
}

// HotpathDirective is the annotation marking a function as part of a
// steady-state step path. It must appear in the function's doc comment:
//
//	// evalSteady is ...
//	//
//	//mlmd:hotpath
//	func (e *Engine) evalSteady(rs *rankState) { ... }
//
// Annotated functions are held to the noalloc contract, and the
// lint meta-test (internal/lint/meta_test.go) pins the annotation set to
// the hot packages so stale annotations fail `make check`.
const HotpathDirective = "mlmd:hotpath"

// IsHotpath reports whether fd carries the //mlmd:hotpath directive.
func IsHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimPrefix(c.Text, "//") == HotpathDirective {
			return true
		}
	}
	return false
}

// FuncDisplayName renders fd as it appears in findings and in the
// meta-test's required-annotation list: "For", "(*Engine).evalSteady",
// "Sim3D.Step".
func FuncDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		return fmt.Sprintf("(*%s).%s", baseTypeName(star.X), fd.Name.Name)
	}
	return fmt.Sprintf("%s.%s", baseTypeName(t), fd.Name.Name)
}

// baseTypeName extracts the receiver base type name, dropping any type
// parameters.
func baseTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return baseTypeName(t.X)
	case *ast.IndexListExpr:
		return baseTypeName(t.X)
	}
	return types.ExprString(e)
}

// HotpathFuncs returns the annotated functions of pkg keyed by display
// name, for the meta-test and for noalloc.
func HotpathFuncs(pkg *Package) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && IsHotpath(fd) {
				out[FuncDisplayName(fd)] = fd
			}
		}
	}
	return out
}
