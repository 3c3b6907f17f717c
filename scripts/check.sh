#!/usr/bin/env bash
# Tier-2 quality gate: vet, formatting, and the full test suite under the
# race detector (the sweep worker pool makes data races a first-class
# failure mode). Tier-1 remains `go build ./... && go test ./...`.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

# perfbench is a nested module, so the root build never compiles it; a
# root API change would otherwise break the benchmark silently.
echo "== perfbench: go vet + go build"
(cd perfbench && go vet ./... && go build -o /dev/null ./...)

echo "== dhllint ./..."
go run ./cmd/dhllint ./...

# Redundant with the full run above, but a dedicated step means a broken
# lock-discipline or escape invariant names itself instead of hiding in
# the aggregate diagnostic list.
echo "== dhllint concflow gate (lockcheck, lockorder, goescape)"
go run ./cmd/dhllint -rules lockcheck,lockorder,goescape ./...

# dhlrepro regenerates every paper table and figure; the rewritten files
# must equal the committed out/.
echo "== dhlrepro -out out: paper artefacts unchanged"
go run ./cmd/dhlrepro -out out
git diff --exit-code out/

echo "== go test -race ./..."
go test -race ./...

# The admission gate, the server around it, the retrying client and the
# load harness, plus the sweep pool and the router whose cost, usability
# and table buffers its workers read and write, repeated so rare
# interleavings on a multi-core host show.
echo "== go test -race -count=20 (admission, control plane, sweep, router)"
go test -race -count=20 ./internal/admit ./internal/controlplane ./internal/cpclient ./cmd/dhlload ./internal/sweep ./internal/tubenet

echo "OK: vet, gofmt, build (root and perfbench), dhllint, paper artefacts, race-clean tests"
