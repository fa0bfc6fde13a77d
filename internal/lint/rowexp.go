package lint

import (
	"go/ast"
	"go/types"
)

// RowExp keeps the exponential off the hot paths' scalar loops: a
// //mlmd:hotpath function must not use math.Exp. Step paths take their
// exponentials a whole row at a time through linalg.ExpRows (or
// linalg.SiLURows), whose vector kernel is math.Exp bit for bit in this
// process — so a per-element math.Exp on a step path is both the slow form
// and a second place the CPU-model dependence of the stdlib's exp would have
// to be tracked. The references those row functions must equal are the
// intended exceptions and carry //lint:allow rowexp with a reason.
var RowExp = &Analyzer{
	Name: "rowexp",
	Doc: "no math.Exp in a //mlmd:hotpath function: step paths take " +
		"exponentials a row at a time through linalg.ExpRows/SiLURows, whose " +
		"kernel equals math.Exp bit for bit",
	Run: runRowExp,
}

func runRowExp(p *Pass) {
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			if !IsHotpath(fd) {
				return
			}
			name := FuncDisplayName(fd)
			ast.Inspect(body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "math" && fn.Name() == "Exp" {
					p.Reportf(sel.Pos(), "%s: math.Exp on the hot path; take the row through linalg.ExpRows or linalg.SiLURows (same bits, vector kernel)", name)
				}
				return true
			})
		})
	}
}
