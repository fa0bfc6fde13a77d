package lint

import (
	"go/ast"
	"sync"
	"testing"
)

// hotpathPkgs is the closed set of packages allowed to carry //mlmd:hotpath
// annotations: the steady-state step paths whose 0-allocs/op contract the
// runtime alloc tests pin. An annotation anywhere else is either a stray
// (the function is not on a step path) or a sign the list needs a deliberate
// extension here.
var hotpathPkgs = map[string]bool{
	"mlmd/internal/par":        true,
	"mlmd/internal/linalg":     true,
	"mlmd/internal/md":         true,
	"mlmd/internal/nn":         true,
	"mlmd/internal/allegro":    true,
	"mlmd/internal/maxwell":    true,
	"mlmd/internal/tddft":      true,
	"mlmd/internal/shard":      true,
	"mlmd/internal/shard/halo": true,
}

// requiredHotpaths names the spine of each steady-state step path. The
// meta-test fails if any of these loses its annotation, so deleting a
// //mlmd:hotpath line (and with it the noalloc guarantee on that function)
// cannot slip through review silently.
var requiredHotpaths = map[string][]string{
	"mlmd/internal/par": {"For", "stealJob", "(*job).loop", "(*job).participate", "(*job).runChunk"},
	"mlmd/internal/linalg": {"GEMM64", "gemm64Range", "GEMM32", "gemm32Range", "cgemmAccumRange",
		"ZRotPairs", "zrotPairsGo", "ZPhaseRows", "zphaseRowsGo", "zgemmTile", "zgemmTileGo", "dgemmTile", "dgemmTileGo", "(*GEMM64Job).Run",
		"CurlRows", "curlRowsGo", "ExpRows", "expRowsGo", "SiLURows", "siluRowsGo", "SiLU"},
	"mlmd/internal/md": {"(*LennardJones).forceChunk", "(*ljKernel).row", "sweepShifted", "sweepImages"},
	"mlmd/internal/nn": {"(*MLP).ForwardTapeInto", "(*MLP).layerForwardInto", "(*MLP).BackwardInto", "(*MLP).ForwardBatch", "(*MLP).BackwardBatch"},
	"mlmd/internal/allegro": {
		"(*Model).EvalBlock", "(*Model).GatherAtom", "(*Model).forceBlockBatched",
		"DescriptorSpec.descriptorInto", "DescriptorSpec.gaussExponents", "DescriptorSpec.radialInto", "DescriptorSpec.descriptorGradPre", "DescriptorSpec.PairGradTaped", "buildEnv",
	},
	"mlmd/internal/maxwell": {"(*Field).Step", "(*Sim3D).Step", "(*Sim3D).halfStep", "(*Sim3D).updateE", "(*Sim3D).updateB", "(*Sim3D).applySource", "(*Sim3D).PackField"},
	"mlmd/internal/tddft": {
		"(*KinProp).Propagate", "(*KinProp).baselineSweep", "(*KinProp).propagateReordered", "(*KinProp).propagateBlocked",
		"(*ShardProp).Step", "(*ShardProp).rotatePairs", "(*ShardProp).rotateOneSided", "(*ShardProp).vprop", "(*ShardProp).scaleOwned",
		"VProp", "applyPhase", "phaseTable",
	},
	"mlmd/internal/shard": {
		"(*Engine).runSteps", "(*Engine).evalSteady", "(*Engine).forceStep", "(*Engine).checkStale",
		"(*Engine).localKE", "(*Engine).refreshGhosts", "(*Engine).postAxisSends", "(*Engine).recvAxis",
		"(*posField).Pack", "(*posField).Unpack", "(*auxField).Pack", "(*auxField).Unpack",
	},
	"mlmd/internal/shard/halo": {
		"(*GridField).Pack", "(*GridField).Unpack", "(*GridField).Refresh",
		"(*GridFieldC).Pack", "(*GridFieldC).Unpack", "(*GridFieldC).Refresh",
		"(*Exchanger).PostRing", "(*Exchanger).FinishRing", "(*Exchanger).Exchange",
	},
}

// realTree loads every package under mlmd/internal once for the meta-tests.
var realTree = sync.OnceValues(func() ([]*Package, error) {
	return Load("../..", "./internal/...")
})

// TestHotpathAnnotationsConfined asserts every //mlmd:hotpath annotation in
// the tree lives in one of the steady-state step-path packages.
func TestHotpathAnnotationsConfined(t *testing.T) {
	pkgs, err := realTree()
	if err != nil {
		t.Fatalf("loading internal/...: %v", err)
	}
	for _, pkg := range pkgs {
		hot := HotpathFuncs(pkg)
		if len(hot) == 0 {
			continue
		}
		if !hotpathPkgs[pkg.Path] {
			for name := range hot {
				t.Errorf("%s: //mlmd:hotpath on %s, but %s is not a steady-state step-path package",
					pkg.Path, name, pkg.Path)
			}
		}
	}
}

// TestHotpathSpineAnnotated asserts the required step-path spine functions
// exist and are annotated, so the noalloc guarantee cannot be silently
// narrowed by deleting annotations (or renaming functions out from under
// them).
func TestHotpathSpineAnnotated(t *testing.T) {
	pkgs, err := realTree()
	if err != nil {
		t.Fatalf("loading internal/...: %v", err)
	}
	byPath := map[string]*Package{}
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	for path, want := range requiredHotpaths {
		pkg := byPath[path]
		if pkg == nil {
			t.Errorf("required hotpath package %s not loaded", path)
			continue
		}
		hot := HotpathFuncs(pkg)
		decls := map[string]bool{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[FuncDisplayName(fd)] = true
				}
			}
		}
		for _, name := range want {
			switch {
			case hot[name] != nil:
			case decls[name]:
				t.Errorf("%s: %s exists but lost its //mlmd:hotpath annotation", path, name)
			default:
				t.Errorf("%s: required hotpath function %s no longer exists (update requiredHotpaths if it was renamed)", path, name)
			}
		}
	}
}
