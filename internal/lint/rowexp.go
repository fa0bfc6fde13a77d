package lint

import (
	"go/ast"
	"go/types"
)

// RowExp keeps the exponential and the trigonometric functions off the hot
// paths' scalar loops: a //mlmd:hotpath function must not use math.Exp,
// math.Sin, math.Cos or math.Sincos. Step paths take them a whole row at a
// time through linalg.ExpRows (or linalg.SiLURows) and linalg.SincosRows,
// whose vector kernels are the stdlib functions bit for bit in this process —
// so a per-element call on a step path is both the slow form and a second
// place the stdlib's CPU-model and version dependence would have to be
// tracked. The references those row functions must equal are the intended
// exceptions and carry //lint:allow rowexp with a reason.
var RowExp = &Analyzer{
	Name: "rowexp",
	Doc: "no math.Exp, math.Sin, math.Cos or math.Sincos in a //mlmd:hotpath " +
		"function: step paths take them a row at a time through " +
		"linalg.ExpRows/SiLURows/SincosRows, whose kernels equal the stdlib bit for bit",
	Run: runRowExp,
}

// rowFuncs maps each flagged math function to the row function to use.
var rowFuncs = map[string]string{
	"Exp":    "linalg.ExpRows or linalg.SiLURows",
	"Sin":    "linalg.SincosRows",
	"Cos":    "linalg.SincosRows",
	"Sincos": "linalg.SincosRows",
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
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
					return true
				}
				if row, bad := rowFuncs[fn.Name()]; bad {
					p.Reportf(sel.Pos(), "%s: math.%s on the hot path; take the row through %s (same bits, vector kernel)", name, fn.Name(), row)
				}
				return true
			})
		})
	}
}
