package lint

import (
	"go/ast"
	"strings"
)

// PoolOnly enforces the PR 1 concurrency invariant: every hot fan-out runs
// on the internal/par worker pool, so exactly one place owns worker-count
// policy, chunking, and panic propagation — and so trajectories stay
// bit-reproducible at a fixed worker count. Raw `go` statements are allowed
// only inside internal/par itself and for the socket transport's
// per-connection reader, heartbeat, and accept goroutines in
// internal/cluster. Rank-lifecycle goroutines (one long-lived goroutine per
// hosted rank, not a data-parallel fan-out) are started in one place, the
// rank runtime internal/rank, whose go statement carries //lint:allow
// poolonly with its reason; every engine hosts its ranks there. The few
// other intentional exceptions (process supervision, transport set-up)
// carry their own allow and reason.
var PoolOnly = &Analyzer{
	Name: "poolonly",
	Doc: "no raw go statements outside internal/par (and the whitelisted " +
		"transport reader/heartbeat/accept goroutines in internal/cluster): " +
		"kernel fan-outs must use par.For/par.Do so worker-count policy and " +
		"bit-reproducible chunking stay in one place",
	Run: runPoolOnly,
}

// clusterGoroutines are the internal/cluster functions allowed to run on
// raw goroutines: the per-connection frame readers, the liveness heartbeat,
// and the listener accept loop. They are connection-lifecycle concurrency —
// per-peer, long-lived, and outside any compute path the pool schedules.
var clusterGoroutines = map[string]bool{
	"readLoop":    true,
	"heartbeat":   true,
	"acceptPeers": true,
}

func runPoolOnly(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path, "internal/par") || p.Pkg.Name == "par" {
		return
	}
	isCluster := p.Pkg.Name == "cluster"
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if isCluster && spawnsWhitelisted(g) {
				return true
			}
			p.Reportf(g.Pos(), "raw goroutine outside internal/par: hot fan-outs must use par.For/par.Do (pool-only concurrency contract); rank-lifecycle goroutines need //lint:allow poolonly <reason>")
			return true
		})
	}
}

// spawnsWhitelisted reports whether the go statement invokes (directly or
// through a trivial closure) one of the whitelisted cluster goroutines.
func spawnsWhitelisted(g *ast.GoStmt) bool {
	found := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && clusterGoroutines[id.Name] {
			found = true
		}
		return !found
	})
	return found
}
