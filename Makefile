GO ?= go

.PHONY: all build vet test race examples cmds lint fmt tidy-check bench-build check overhead-gate fuzz

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# examples runs every program under examples/ (about 3 s; CI's test job runs
# this target) and fails on the first that exits non-zero.
examples:
	@for d in examples/*/; do echo "$(GO) run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# cmds runs clusterq -list, slaplan with its baselines and a metrics file,
# and each multi-line simrun example in README.md as written there, at
# -horizon 3000 (about 3 s; CI's test job runs this target). It fails on the
# first that exits non-zero.
cmds:
	bash scripts/cmds.sh

# lint runs the in-tree analyzer suite (see internal/lint); it exits non-zero
# on any finding.
lint:
	$(GO) run ./cmd/clusterqlint ./...

# fmt fails if any file is not gofmt-clean (lists the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# tidy-check fails if go.mod/go.sum would change under `go mod tidy`.
tidy-check:
	$(GO) mod tidy -diff

# bench-build builds and vets the benchmark module (bench/, its own go.mod),
# which imports the internal packages: it fails when a change removes
# something the benchmark still uses.
bench-build:
	cd bench && $(GO) build ./... && $(GO) vet ./...

# fuzz smoke-runs every fuzz target for 10s each (CI's test job runs this
# target): the mean-delay duals' option handling and optimality
# certificates, the tier argmin's start-independence, the solvers' memoised
# tier evaluation against a fresh one, cluster JSON configs through parsing,
# validation and evaluation, a tier evaluation against its boxed reference,
# a tier evaluation's derivatives against central differences of its
# values, the simulator's option defaults, the event calendar against a sorted
# reference, a station's running set against the linear scans, the
# flight recorder against its map model, and the window sensors against their
# division-based reference.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMeanDuals$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPieceMinStart$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzTierMemoMatchesEval$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseConfig$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzTierEvalMatchesReference$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzTierSlopes$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzOptionsDefaults$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzCalendarMatchesSorted$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzRunSetMatchesScan$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzRecorderMatchesModel$$' -fuzztime 10s ./internal/obs/trace
	$(GO) test -run '^$$' -fuzz '^FuzzWindowMatchesReference$$' -fuzztime 10s ./internal/obs/window

# overhead-gate asserts the disabled-flight-recorder event loop stays near
# the recorded baseline (results/BENCH_obs.json; CI's bench-smoke job runs
# this on every push).
overhead-gate:
	CLUSTERQ_OVERHEAD_GATE=1 $(GO) test -run TestDisabledRecorderOverheadGate -v ./internal/sim

# check is the full pre-push suite and runs what CI's test and lint jobs run
# (staticcheck aside): build, go vet, formatting, module hygiene, the
# nine-analyzer lint gate (including the hotalloc escape-analysis pass, which
# replays from the go build cache), the benchmark module's build and vet, and
# the tests. Measured at ~14s wall on a warm build/test cache on a 2-vCPU
# Xeon VM (2026-10: `time make -k check` = 14.2s real, of which vet and
# bench-build are ~1s each), under the 30s budget; a cold cache pays the
# one-time compile on top.
check: build vet fmt tidy-check lint bench-build test
