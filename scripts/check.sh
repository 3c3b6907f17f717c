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

echo "== dhllint ./..."
go run ./cmd/dhllint ./...

# Redundant with the full run above, but a dedicated step means a broken
# lock-discipline or escape invariant names itself instead of hiding in
# the aggregate diagnostic list.
echo "== dhllint concflow gate (lockcheck, lockorder, goescape)"
go run ./cmd/dhllint -rules lockcheck,lockorder,goescape ./...

echo "== go test -race ./..."
go test -race ./...

# The admission gate, the server around it, the retrying client and the
# load harness, repeated so rare interleavings on a multi-core host show.
echo "== go test -race -count=20 (admission and control plane)"
go test -race -count=20 ./internal/admit ./internal/controlplane ./internal/cpclient ./cmd/dhlload

echo "OK: vet, gofmt, build, dhllint, race-clean tests"
