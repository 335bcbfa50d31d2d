#!/usr/bin/env bash
# goloc.sh — print the tree-size metric ROADMAP.md tracks: the total
# line count of every non-test Go file (*.go minus *_test.go), outside
# hostbench/ (the nested benchmark module), any testdata/ directory and
# hidden directories. Informational only; nothing gates on it.
#
#   scripts/goloc.sh        # prints one number
set -euo pipefail

cd "$(dirname "$0")/.."

find . \( -path ./hostbench -o -name testdata -o -name '.?*' \) -prune \
    -o -type f -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 -r cat | wc -l | tr -d ' '
