#!/bin/sh
# check.sh — the tier-1+ gate: everything a change must pass before merge.
#
#   build       go build ./...
#   vet         go vet ./...
#   gofmt       gofmt -l .                     (fails if any file is unformatted)
#   bcast-vet   go run ./cmd/bcast-vet ./...   (repo-specific invariants;
#               writes bcast-vet.json and enforces a 30s-per-package
#               analyzer time budget)
#   staticcheck staticcheck ./...              (skipped when not installed)
#   govulncheck govulncheck ./...              (skipped when not installed)
#   test        go test ./...                  (tier-1: the full unit/property suite)
#   shuffle     go test -shuffle=on ./...      (no order-dependent tests)
#   race        go test -race ./...            (parallel-harness and pool safety)
#   sockets     the TCP loopback tests, -count=20, and the bcast-live
#               crash demos, -count=50 (a dial/accept or reconnect race
#               that loses once in a few runs shows up as a failure here)
#   soak        outage + crash-restart soaks under -race (50 kill/revive
#               cycles each: channel outages, then station SIGKILL/warm
#               restart; leak-free, sim-twin byte-identical), and under
#               -race, -count=10: the lossy-medium twin tests (Tick and the
#               delivery goroutines decide every frame's fault) and the
#               outage-replan twin tests (Tick steps the shared watchdog
#               and lands swaps while OnLiveChange stages on the registry)
#   fuzz        scripts/fuzz.sh                (every fuzz target, 5s each)
#   perf        go test -run '^$' -bench . -benchtime 1x ./...
#               (every benchmark once: a broken benchmark fails the gate)
#
# staticcheck and govulncheck are pinned in tools/go.mod and installed in
# CI; offline dev boxes without the binaries get a warning, not a failure.
#
# Usage: scripts/check.sh
set -eu

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: these files are not formatted (fix with gofmt -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== bcast-vet =="
go run ./cmd/bcast-vet -json bcast-vet.json -timebudget 30s ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "warning: staticcheck not installed; skipping (pinned in tools/go.mod)" >&2
fi

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "warning: govulncheck not installed; skipping (pinned in tools/go.mod)" >&2
fi

echo "== test =="
go test ./...

echo "== shuffle =="
go test -shuffle=on ./...

echo "== race =="
go test -race ./...

echo "== sockets =="
go test -count=20 -run 'TestTCPLoopback|TestTickSurvivesAbruptCloseTCP|TestEvictedUnderConcurrentAttachAndClose' ./internal/netcast
go test -count=50 -run TestLiveRestart ./cmd/bcast-live

echo "== soak =="
go test -race -run 'TestOutageSoak|TestCrashRestartSoak' -count=1 ./internal/netcast
go test -race -count=10 -run 'TestFaulty|TestComposedFaultsMatchTwin|TestOutageDuringSwapMatchesTimeline|TestOutageStageReplacementMatchesReplanTimeline' ./internal/netcast

echo "== fuzz =="
sh scripts/fuzz.sh 5s

echo "== perf =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "check: all gates passed"
