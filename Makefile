# Repro build/check entry points.
#
#   make check   - everything CI runs: gofmt, vet, build, race tests (-short),
#                  and the nested bench/ module's vet + short tests
#   make test    - full test suite without the race detector
#   make bench   - regenerate the pinned extension cells -> BENCH_cells.csv
#   make bench-all - every developer benchmark
#   make tables  - print the paper's tables, the ablations and the extension cells
#   make mutants - apply each committed mutant (mutants/*.diff) to a copy of
#                  the tree and check that the test its header names fails on
#                  it with the expected message (mutants/run.sh)
#   make loc     - lines of non-test Go outside bench/: the figure a simplicity
#                  entry in CHANGES.md quotes before and after; fails above
#                  LOC_CEILING. Also prints the _test.go lines beside it
#                  (reported, not gated: a diet that moves code into tests
#                  is not a diet)
#
# The gated end-to-end benchmark is bench/ (bash bench/run.sh, BENCHMARK.json).

GO ?= go

.PHONY: check fmt-check vet build bench-build test test-race bench bench-all tables mutants loc

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

# Every mutant must apply, and its named test must fail on it for the
# reason its header expects: a test that stops biting fails this target,
# naming the mutant that survived.
mutants:
	bash mutants/run.sh

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
# Raised 20571 -> 20599 for kv overwrites that write only the bytes of the
# value that differ, and for a shard added mid-run whose clock starts at the
# deployment's elapsed time; ROADMAP item 19's diet is the payback.
# Lowered 20599 -> 20596 by one goroutine per connection: kvserver's reader
# writes its own answers, and the response queue, its writer goroutine and
# Config.Window went.
# Raised 20596 -> 20806 for one transaction per burst: kv's shared open
# transaction (staging, the undo-share limit, reads through it on a shard
# it wrote, the loss path), DB.ShardFor, kvserver's tokens taken after the
# seal, and tpc.Replay's before-images; ROADMAP item 19's diet is the
# payback.
# Lowered 20806 -> 20776 by one staging path in kv: a Txn, the format
# header and recovery's repair stage in the store's open transaction, and
# Store.finish and Txn.Commit's own probe / write / settle loop went.
# Lowered 20776 -> 20697 by one receiver list in the SAN model: a Memory
# Channel window maps to a list of receivers and a write buffer keeps
# category masks, and the inline receiver, the dead window, the unread loss
# counters and the per-byte accounting loops went.
# Raised 20697 -> 20756 for heartbeat rounds implied by the commit stream: a
# flush every heard backup acknowledged stands for its period's round, with
# the rounds' exchanged/implied counters; ROADMAP item 19's diet is the
# payback.
# Lowered 20756 -> 20734 by one drill for every fault: the cold restart is a
# tpc.Drill step over one deployment (Cluster.PowerOn rebuilds the group in
# place), so RunDurability, its loops and DurabilityResult went; one
# acknowledgement step serves both backup schemes, and one throughput grid
# and one traffic grid serve the paper's Tables 1 and 3-7.
# Lowered 20734 -> 20730 by one re-join rule for both backup schemes: every
# node keeps commit stamps on one mark clock, and the passive gate snapshot,
# the per-region delta map and its since type went.
# Lowered 20730 -> 20698 by kv's recovery refusing what no crash produces:
# its repair transaction, the clears list and the duplicate resolution went.
# Lowered 20698 -> 20640 by one capture of a transaction's writes: the disk
# tier encodes its commit frame from the group transaction's staging, so
# vista.Sink and the tier's own staging went, and a node carries its WAL slot.
LOC_CEILING := 20640

loc:
	@n=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l); \
		t=$$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l); \
		echo "$$n lines of non-test Go outside bench/ (ceiling $(LOC_CEILING))"; \
		echo "$$t lines of _test.go outside bench/ (reported, not gated)"; \
		[ $$n -le $(LOC_CEILING) ]
