package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AscendSum guards the canonical ascending-order force/energy assembly:
// floating-point partials gathered from peers or workers must be reduced by
// iterating a sorted/ascending index source (the ascending-global-id
// PairGradTaped chains, ascending-rank collective combines), never in
// channel-receipt order and never over keys collected from a map but not
// sorted. Receipt order varies run to run; with floating-point addition
// non-associative, that is a silent bitwise-reproducibility break.
var AscendSum = &Analyzer{
	Name: "ascendsum",
	Doc: "per-peer/per-worker floating-point partials must be accumulated " +
		"over a sorted/ascending index source: accumulating inside a " +
		"`for range ch` receive loop (receipt order) or over map keys that " +
		"were never sorted breaks bitwise reproducibility",
	Run: runAscendSum,
}

func runAscendSum(p *Pass) {
	if !inInternal(p.Pkg) {
		return
	}
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			checkChanReceiptAccum(p, body)
			checkUnsortedKeyAccum(p, body)
		})
	}
}

// checkChanReceiptAccum flags floating-point accumulation inside a range
// over a channel: values arrive in receipt order, which depends on
// scheduling, not on rank/gid.
func checkChanReceiptAccum(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(r.X)
		if t == nil {
			return true
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return true
		}
		if pos, ok := fpAccumIn(info, r.Body); ok {
			p.Reportf(pos, "floating-point partials accumulated in channel-receipt order (nondeterministic); stage them per source and reduce in ascending rank/gid order")
		}
		return true
	})
}

// checkUnsortedKeyAccum performs the function-local dataflow check: a slice
// filled from a map range (`for k := range m { keys = append(keys, k) }`)
// that later drives a range loop accumulating floats must be sorted in
// between (sort.* / slices.Sort*). The sorted variant is the canonical
// allowed idiom.
func checkUnsortedKeyAccum(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info

	// Pass A: slices built from map keys, keyed by slice identity.
	built := map[types.Object]token.Pos{} // object -> end of the building loop
	ast.Inspect(body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(r.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		keyID, ok := r.Key.(*ast.Ident)
		if !ok || keyID.Name == "_" {
			return true
		}
		keyObj := info.ObjectOf(keyID)
		ast.Inspect(r.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !isBuiltin(info, call, "append") || !isBareKeyAppend(info, call, keyObj) {
				return true
			}
			if obj := rootObj(info, as.Lhs[0]); obj != nil {
				built[obj] = r.End()
			}
			return true
		})
		return true
	})
	if len(built) == 0 {
		return
	}

	// Pass B: sort events touching those slices.
	sorted := map[types.Object][]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						if _, tracked := built[obj]; tracked {
							sorted[obj] = append(sorted[obj], call.Pos())
						}
					}
				}
				return true
			})
		}
		return true
	})

	// Pass C: accumulation loops over the built slices.
	ast.Inspect(body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		obj := rootObj(info, r.X)
		if obj == nil {
			return true
		}
		buildEnd, tracked := built[obj]
		if !tracked || r.Pos() < buildEnd {
			return true
		}
		pos, accums := fpAccumIn(info, r.Body)
		if !accums {
			return true
		}
		for _, sp := range sorted[obj] {
			if sp > buildEnd && sp < r.Pos() {
				return true // sorted between collection and reduction: the canonical idiom
			}
		}
		p.Reportf(pos, "floating-point partials accumulated over map keys (%s) that were never sorted; sort the key slice ascending before reducing", obj.Name())
		return true
	})
}

// isSortCall recognizes sort.* and slices.Sort* calls (incl. sort.Ints,
// sort.Slice, slices.SortFunc, ...).
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[pkgID].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(sel.Sel.Name, "Sort")
	}
	return false
}
