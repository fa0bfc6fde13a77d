# mlmd build / verification entry points.
#
#   make check   - format check, vet, static enforcement (make lint), the
#                  link-time census (make reach), build,
#                  full test suite (including the
#                  multi-process smoke: cmd/mlmd's TestMultiProcessSummary-
#                  MatchesGolden runs a short `mlmd -procs 2` over the
#                  Unix-socket rank transport against the golden summary, and
#                  the auto-recovery smoke: TestAutoResumeRecoversFromKilled-
#                  Worker SIGKILLs one of three -max-restarts workers and
#                  requires the shrunken resume to reproduce the golden tail
#                  bitwise — both skipping on platforms without Unix
#                  sockets), the race detector over the pool-parallel and
#                  sharded packages (the -short shard lane races the
#                  RunRecovered shrink-and-resume driver too), the coverage
#                  floor, a short fuzz smoke (FuzzReadHandshake covers the
#                  generation-tagged wire handshake), and the docs gate
#   make vet     - go vet ./... (asmdecl checks the amd64 assembly against its
#                  Go declarations), a cross-vet of the kernel-tier packages
#                  for arm64 (the stub/reference side of every *_amd64 file
#                  must keep compiling), and the asm-nofma guard
#   make asm-nofma - fail if any *.s under internal/ contains a fused
#                  multiply-add mnemonic, an approximate reciprocal
#                  (VRCP*, VRSQRT*) or an AVX-512 rounding override
#                  (.RN_SAE/.RZ_SAE/.RU_SAE/.RD_SAE/.SAE): the vector kernels
#                  are bit-identical to their Go references only because every
#                  product is rounded, to nearest, before it is added. The one
#                  exemption is internal/linalg/vexp_amd64.s, whose reference
#                  is the stdlib's fused math.Exp: it is fused exactly where
#                  the reference fuses — its FMA mnemonics must be, in order,
#                  those of the avxfma block of $GOROOT/src/math/exp_amd64.s
#   make reach   - run cmd/reach, the link-time census: build every binary
#                  and the paper roots' test binaries with inlining off and
#                  fail on a function under internal/ that none of them
#                  links and cmd/reach/allowlist.txt does not list (or on a
#                  listed one that is linked or gone)
#   make lint    - run cmd/mlmdlint (the internal/lint analyzer suite:
#                  noalloc, detrange, poolonly, ascendsum, wiresafe, rowexp) over
#                  ./... and fail on any finding; docs/lint.md documents the
#                  //mlmd:hotpath annotation and //lint:allow suppression
#                  grammar
#   make race-full - CI-nightly race lane: the full (non-short) detector
#                  pass over the transport, halo, and stencil packages plus
#                  the in-process rows of the shard identity oracle under
#                  -race (the -short lane `make race` runs on every check)
#   make soak    - CI-nightly recovery lane: every shrink-and-resume test
#                  (the shard.RunRecovered driver in process and across
#                  OS processes, and the mlmd -procs and -hosts runs that
#                  heal through it) five times over, so a flake in the one
#                  recovery path shows up
#   make docs    - documentation gate: gofmt -l on the documented packages,
#                  go vet ./..., and cmd/checkdoc (fails on exported
#                  identifiers missing doc comments in shard/cluster/
#                  cluster/wire/par)
#   make cover   - enforce the >=85% coverage floor on the MD/IO/cluster/
#                  shard packages (grid/overlap paths included)
#   make fuzz    - 10s native-fuzz smoke per mlmdio deserializer, the
#                  checkpoint file ring, and per
#                  wire frame decoder (the multi-process rank transport), plus
#                  the bitwise equivalence harnesses (batched MLP, halo pack,
#                  min-image fast path vs formula, complex128 vector kernels,
#                  the float64 GEMM tile, the Yee curl rows, the exp and
#                  sincos rows and Allegro's radial and pair-gradient rows
#                  vs their references) and the shard identity oracle's in-process
#                  rows drawn at random (FuzzIdentity)
#   make benchmark-check - go vet + go test inside benchmark/ (a module of its
#                  own, which ./... never reaches)
#   make bench-ab A=<ref> B=<ref> [SEEDS=10] [BENCH_SECONDS=10] - the gate for
#                  performance claims: check the two refs out into throw-away
#                  worktrees under .bench_build/ab and run benchmark/run.sh on
#                  them (alternating pairs, every workload, compare table;
#                  exit 1 on a regression). Both refs must contain benchmark/.
#   make bench   - hot-kernel benchmarks (serial vs pool) with allocation
#                  counts, printed by go test -bench, and one collective
#                  (AllReduce, AllGather) per transport and rank count
#   make tables  - the full paper-table benchmark suite at the repo root
#
# docs/benchmarks.md maps what each measurement entry point is for;
# ARCHITECTURE.md maps the layers these targets exercise.

GO ?= go

# Fail pipelines on the first failing stage (so a `| tail` cannot hide a
# failed fuzz or coverage run).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# Packages whose kernels run on the internal/par worker pool, plus the
# rank-parallel shard engine, the rank runtime it runs on, and its
# communicator (the rank-scaling race surface), and mlmdio (concurrent
# checkpoint writers share a pool of encode buffers). The shard package is raced separately with -short: its grid
# identity matrix shrinks to 60-step trajectories there, which exercises
# every exchange/migration/overlap code path without the full-length
# trajectory cost under the detector.
PAR_PKGS = ./internal/par ./internal/md ./internal/linalg ./internal/allegro \
	./internal/tddft ./internal/core ./internal/cluster ./internal/maxwell \
	./internal/shard/halo ./internal/rank ./internal/mlmdio

# Coverage-gated packages and floor (ISSUE 2 CI contract; ISSUE 3 raised
# the floor to cover the shard grid/overlap and cluster grid-topology
# paths; ISSUE 5 added the wire codec; PR 7 added the nn batched-inference
# tapes; PR 9 added the shape-agnostic halo layer and its grid solvers —
# current levels, as `make cover` prints them: md 97.5%, mlmdio 89.1%,
# cluster 91.3%, wire 94.5%, shard 92.0%, nn 94.4%, halo 99.3%,
# maxwell 89.5%, tddft 93.9%, lint 88.3%, rank 97.0%).
COVER_PKGS = ./internal/md ./internal/mlmdio ./internal/cluster ./internal/cluster/wire ./internal/shard ./internal/nn \
	./internal/shard/halo ./internal/maxwell ./internal/tddft ./internal/lint ./internal/rank
COVER_MIN  = 85

# Deserializers and frame decoders under native fuzzing, per package, plus
# the blocked-vs-per-row MLP equivalence harness (PR 7: batched inference
# must match the per-atom tapes bitwise on arbitrary shapes and inputs) and
# the checkpoint file ring under writes stopped mid-rotation
# (FuzzCheckpointRing: each input frees a few fsynced files, so on ext4
# with online discard it runs a few inputs per second).
FUZZ_TARGETS      = FuzzLoadSystem FuzzLoadCheckpoint FuzzCheckpointRing
WIRE_FUZZ_TARGETS = FuzzReadData FuzzReadHandshake
NN_FUZZ_TARGETS   = FuzzBatchedMLP
HALO_FUZZ_TARGETS = FuzzFieldPackUnpack
MD_FUZZ_TARGETS   = FuzzMinImage1 FuzzNeighborList FuzzLJRow FuzzPruneRows
LINALG_FUZZ_TARGETS = FuzzZKernels FuzzDKernels FuzzCurlRows FuzzExpRows FuzzSincosRows FuzzGroundKernels
ALLEGRO_FUZZ_TARGETS = FuzzRadialRows FuzzPairGradRows
SHARD_FUZZ_TARGETS  = FuzzIdentity
FUZZ_TIME   ?= 10s

# Packages whose exported API must be fully doc-commented (`make docs`).
DOC_PKGS = ./internal/shard ./internal/cluster ./internal/cluster/wire ./internal/par ./internal/allegro ./internal/nn \
	./internal/shard/halo ./internal/maxwell ./internal/tddft ./internal/multigrid ./internal/lint ./internal/rank \
	./internal/mlmdio ./internal/bench ./internal/ferro ./internal/xsnn ./internal/core

# Packages with architecture-specific files (assembly kernels and their
# stubs) or that call them: cross-vetted for a non-amd64 GOARCH.
ARCH_PKGS = ./internal/linalg ./internal/md ./internal/tddft ./internal/core ./internal/nn ./internal/maxwell \
	./internal/allegro

.PHONY: check fmt vet asm-nofma lint reach build test race race-full soak cover fuzz docs benchmark-check bench-ab bench tables

check: fmt vet lint reach build test race cover fuzz docs benchmark-check

# Static enforcement: the internal/lint analyzer suite over the whole tree.
# Deliberately-violating analyzer fixtures live under internal/lint/testdata,
# which the ./... wildcard does not match.
lint:
	$(GO) run ./cmd/mlmdlint ./...

# Link-time census: a function no binary links is deleted or allowlisted with
# its reason (ARCHITECTURE.md, "Unlinked but kept").
reach:
	$(GO) run ./cmd/reach

# docs = gofmt + vet (via prerequisites, so `make check` doesn't run them
# twice) + the exported-doc-comment gate.
docs: fmt vet
	$(GO) run ./cmd/checkdoc $(DOC_PKGS)

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet: asm-nofma
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet $(ARCH_PKGS)

# The exp kernels' file, and the FMA mnemonics (suffix dropped) of a file with
# its comments stripped.
VEXP_ASM = internal/linalg/vexp_amd64.s
fma_seq  = sed 's://.*::' $(1) | grep -oE 'VFN?M(ADD|SUB)[0-9]*' | tr '\n' ' '

asm-nofma:
	@if grep -rnE --include='*.s' 'VFMADD|VFNMADD|VFMSUB|VFNMSUB|VRCP|VRSQRT|\.(R[NZUD]_)?SAE' internal/ | grep -v '^$(VEXP_ASM):'; then \
		echo "fused multiply-add, approximate reciprocal or rounding override in assembly: the kernels must stay bit-identical to their Go references"; exit 1; fi
	@if grep -nE 'VRCP|VRSQRT|\.(R[NZUD]_)?SAE' $(VEXP_ASM); then \
		echo "approximate reciprocal or rounding override in $(VEXP_ASM)"; exit 1; fi
	@ref="$$($(GO) env GOROOT)/src/math/exp_amd64.s"; \
	want="$$(sed -n '/^avxfma:/,$$p' "$$ref" | $(call fma_seq,))"; got="$$($(call fma_seq,$(VEXP_ASM)))"; \
	if [ -z "$$want" ] || [ "$$got" != "$$want" ]; then \
		echo "$(VEXP_ASM) must fuse exactly where the avxfma block of $$ref does:"; \
		echo "  want: $$want"; echo "  got:  $$got"; exit 1; fi

build:
	$(GO) build ./...

# The second line is the exp dispatch's regression test: with the stdlib's
# exp on its unfused path the self-check must keep the fused kernel off.
# The third runs the Allegro goldens, which are keyed by the exp block the
# process runs, on that path too (with the row kernels' reference path).
test:
	$(GO) test ./...
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/linalg -run 'Exp|SiLU'
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/allegro ./internal/shard -run 'AllegroForcesGolden|AllegroTrajectoryGolden|RowsKernelTestsOnReferencePath'

race:
	$(GO) test -race $(PAR_PKGS)
	$(GO) test -race -short ./internal/shard

# CI-nightly: the full-depth race lane. Everything `make race` runs in
# -short mode runs here at full length — the transport soak, the halo
# exchange sweeps, the 3-D stencil runs, and the shard identity oracle's
# in-process rows (every rank grid, skin, balancing, resume and block size
# must reproduce the 1x1x1 trajectory bitwise while the detector watches
# the exchanges). Its socket rows re-execute the test binary per rank and
# are skipped here, as in `make race`.
race-full:
	$(GO) test -race ./internal/cluster ./internal/shard/halo ./internal/maxwell
	$(GO) test -race -run 'Identity|PartialEngines' -skip '/(unix|tcp)-' ./internal/shard

# CI-nightly, beside race-full: all recovery goes through shard.RunRecovered,
# so its tests run five times over.
soak:
	$(GO) test -count=5 -run 'AutoResume|AutoRecovery|RunRecovered|Hosts' ./cmd/mlmd ./internal/shard

cover:
	@for p in $(COVER_PKGS); do \
		line="$$($(GO) test -cover $$p | tail -1)"; echo "$$line"; \
		pct="$$(echo "$$line" | grep -o '[0-9.]*%' | head -1 | tr -d '%')"; \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$p"; exit 1; fi; \
		awk -v p="$$pct" -v m=$(COVER_MIN) 'BEGIN { exit !(p >= m) }' || \
			{ echo "coverage $$pct% of $$p below $(COVER_MIN)%"; exit 1; }; \
	done

fuzz:
	@for f in $(FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/mlmdio -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(WIRE_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/cluster/wire -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(NN_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/nn -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(HALO_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/shard/halo -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(MD_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/md -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(LINALG_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/linalg -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(ALLEGRO_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/allegro -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(SHARD_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/shard -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done

# The gated benchmark is a nested module: ./... above never builds, vets or
# tests it.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

SEEDS         ?= 10
BENCH_SECONDS ?= 10

bench-ab:
	@test -n "$(A)" && test -n "$(B)" || { echo "usage: make bench-ab A=<ref> B=<ref> [SEEDS=10] [BENCH_SECONDS=10]"; exit 2; }
	git worktree prune
	rm -rf .bench_build/ab
	mkdir -p .bench_build/ab
	git worktree add --detach .bench_build/ab/A $(A)
	git worktree add --detach .bench_build/ab/B $(B)
	status=0; bash benchmark/run.sh .bench_build/ab/A .bench_build/ab/B $(SEEDS) $(BENCH_SECONDS) || status=$$?; \
	git worktree remove --force .bench_build/ab/A; git worktree remove --force .bench_build/ab/B; exit $$status

bench:
	$(GO) test ./internal/md ./internal/linalg ./internal/par \
		-run '^$$' -bench . -benchmem -benchtime=1s
	$(GO) test ./internal/cluster -run '^$$' -bench Collective -benchmem -benchtime=200000x

tables:
	$(GO) test . -run '^$$' -bench . -benchmem
