#!/usr/bin/env bash
# Prints the repo's net non-test LOC: every line of every *.go file
# that is not a *_test.go, plus every line of hand-written assembly
# (*.s), excluding the load benchmark's own module (benchmark/) and its
# build directory (.bench_build/). ROADMAP tracks this number; a
# simplification PR is expected to bring it down.
#
#   PR 12 (parent of PR 13): 22514
#   PR 13 (parent of PR 15): 22074
#   PR 15 (parent of PR 18): 21691
#   PR 18 (parent of PR 20): 22003
#   PR 20 (parent of PR 24): 22260
#   PR 24 (parent of PR 26): 22423
#   PR 26 (parent of PR 28): 22610
#   PR 28 (parent of PR 30): 23012
#   PR 30 (parent of PR 31): 22451
#   PR 31 (parent of PR 32): 22894
#   PR 32 (parent of PR 33): 23190
#   PR 33 (parent of PR 34): 23504
#   PR 34 (parent of PR 35): 23007
#   PR 35 (parent of PR 38): 23060
#   PR 38 (parent of PR 39): 23409
#   576aa31 (parent of 16-bit slab ids, headerless rows): 22580
#   5cde909 (parent of the SQ8 re-measurement): 22738
#   4f65b86 (parent of covering as a table family): 22732
#   82c05fc (parent of snapshot sections on every core): 22644
#   b32f829 (parent of one delta-frame decoder): 23109
#   89fe57f (parent of deleting the code no program calls): 23040
#   7d432d2 (parent of one block lookup path): 22729
#   04cbed9 (parent of one way to build an index): 22677
#   ff491d1 (parent of index set-up at sort speed): 22617
#   bc59d80 (parent of the memory budget): 22723
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find . \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
	xargs -0 cat | wc -l
