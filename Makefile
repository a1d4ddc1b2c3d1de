# Tier-1+ quality gates. `make check` is what a change must pass before
# merge: build, vet, bcast-vet (the repo's own invariant analyzers),
# staticcheck/govulncheck when installed, the full test suite, the race
# detector, a short burst on every fuzz target, and one run of every
# benchmark.

GO ?= go
FUZZTIME ?= 5s

.PHONY: build vet bcast-vet test race fuzz bench check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

bcast-vet:
	$(GO) run ./cmd/bcast-vet -timebudget 30s ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	sh scripts/fuzz.sh $(FUZZTIME)

bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 50x .
	$(GO) test -run xxx -bench 'SearchPrunedVsUnpruned|ExactFig1|BuildTree' -benchmem ./internal/topo
	$(GO) test -run xxx -bench 'Search|CountPaths' -benchmem ./internal/datatree
	$(GO) test -run xxx -bench 'Query|Evaluate|Compile' -benchmem ./internal/sim
	$(GO) test -run xxx -bench Stage -benchmem ./internal/epoch
	$(GO) test -run xxx -bench HuTucker -benchmem ./internal/alphatree
	$(GO) test -run xxx -bench 'AllocateSorted|Polish|Levels' -benchmem ./internal/heuristic ./internal/alloc
	$(GO) test -run xxx -bench Tick -benchmem ./internal/netcast

check:
	sh scripts/check.sh
