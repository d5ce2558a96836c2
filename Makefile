GO ?= go

.PHONY: all build vet test race lint fmt tidy-check bench-build check overhead-gate fuzz

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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
# certificates, cluster JSON configs through parsing, validation and
# evaluation, the simulator's option defaults, and the event calendar
# against a sorted reference.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMeanDuals$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseConfig$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzOptionsDefaults$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzCalendarMatchesSorted$$' -fuzztime 10s ./internal/sim

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
