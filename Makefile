# Repro build/check entry points.
#
#   make check   - everything CI runs: gofmt, vet, build, race tests (-short),
#                  and the nested bench/ module's vet + short tests
#   make test    - full test suite without the race detector
#   make bench   - regenerate the pinned extension cells -> BENCH_cells.csv
#   make bench-all - every developer benchmark
#   make tables  - print the paper's tables, the ablations and the extension cells
#   make loc     - lines of non-test Go outside bench/: the figure a simplicity
#                  entry in CHANGES.md quotes before and after; fails above
#                  LOC_CEILING. Also prints the _test.go lines beside it
#                  (reported, not gated: a diet that moves code into tests
#                  is not a diet)
#
# The gated end-to-end benchmark is bench/ (bash bench/run.sh, BENCHMARK.json).

GO ?= go

.PHONY: check fmt-check vet build bench-build test test-race bench bench-all tables loc

check: fmt-check vet build bench-build test-race

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# bench/ is a module of its own, so ./... above never compiles it: a
# rename in the root package would break BENCHMARK.json's ruler unnoticed.
bench-build:
	cd bench && $(GO) vet . && $(GO) test -short .

test:
	$(GO) test ./...

# The race run uses -short: the harness tests skip their heaviest exhibit
# regenerations and the randomized crash tests trim their iteration count,
# keeping the whole run to a couple of minutes.
test-race:
	$(GO) test -race -short ./...

# The nine pinned sim cells at the one pinned scale, exactly as committed:
# TestCellsPinned holds BENCH_cells.csv to this output byte for byte.
bench:
	$(GO) run ./cmd/replbench -experiment cells -csv -q > BENCH_cells.csv

bench-all:
	$(GO) test -bench . -benchtime 2000x -run XXX ./...

tables:
	$(GO) run ./cmd/replbench -experiment everything

# The ceiling is the last diet PR's result: a PR that removes code lowers
# it to what it measures, and no PR raises it without saying why.
# Raised 22440 -> 22476 for the host-memory allocator: a mapped and a heap
# build of it, and the mapping's error returned through the region
# constructors. Raised 22476 -> 22516 for kvclient's coalesced write path (a
# writer goroutine, pooled waiters, a request-kind switch in place of
# closures, a lock-free pool) and pprof beside -metrics-addr; ROADMAP item
# 12's diet is the payback. Lowered 22516 -> 21475 by that diet's first
# part: examples/ became two checked Examples, cmd/mcpingpong went, the
# extension cells lost the configuration knobs only their defaults took.
# Lowered 21475 -> 21209 by its second part: the fault and kv drivers take
# only what their cells set, and ablation-2safe folded into repl-degree.
# Lowered 21209 -> 20921 by keeping one path per job: one read route, one
# clock, one reference executor, one histogram read side. Raised 20921 ->
# 20959 for backup-served lookups at the primary's view and a read-serving
# backup's work accumulator; ROADMAP item 19's diet is the payback.
# Lowered 20959 -> 20812 by one path per measurement, which pays those 38
# lines back: one transaction interface, one executor and one deployment
# type for the drivers, one memoized cell runner, one audited kv read path.
# Raised 20812 -> 20839 for the two-stage seal: a scope's seal records its
# acknowledgement instant in the measured interval instead of idling the
# primary to it, and every other flush settles it; ROADMAP item 19's diet
# is the payback. Lowered 20839 -> 20673 by one fault driver: the
# availability, chaos and rebalance cells are step lists of tpc.Drill.
# Lowered 20673 -> 20669 by deferring on every shard: kv.Burst lost its
# one-shard fork, its deferring flag and Deferring.
# Lowered 20669 -> 20571 by one audit for every drill: the replay oracle
# replaced tpc.Ledger and the durability drill's own loss count.
LOC_CEILING := 20571

loc:
	@n=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l); \
		t=$$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l); \
		echo "$$n lines of non-test Go outside bench/ (ceiling $(LOC_CEILING))"; \
		echo "$$t lines of _test.go outside bench/ (reported, not gated)"; \
		[ $$n -le $(LOC_CEILING) ]
