#!/usr/bin/env bash
# Checks that the prose docs only name things that still exist:
#
#   - a repository path (internal/bench/corel.go, cmd/hybridserve,
#     docs/PERFORMANCE.md, or a bare file name such as within_amd64.s)
#     names a file or directory of this checkout;
#   - a path:N reference (internal/lsh/tables.go:662, SKILL.md:233,283)
#     points at a line that the file has;
#   - an -exp NAME names an experiment cmd/hybridbench still defines.
#
# Paths and path:N are checked in README.md, ROADMAP.md, docs/*.md and
# .claude/skills/verify/SKILL.md; -exp names in all of those but ROADMAP.md,
# which plans experiments as well as naming them. CHANGES.md is history and
# is not checked.
#
# A path with a slash is checked when its first component is a top-level
# directory of the repo or it ends in a file extension (a dot and a letter,
# so 1.40/0.96 is not a path); it resolves against
# the repo root, then internal/ (the docs' shorthand for package paths),
# then the doc's own directory. A bare name (no slash) is checked when it
# ends in .go, .s, .sh or .md and resolves when some file in the repo has
# that name. Globs, absolute paths and URLs are skipped. An -exp glob such as
# fig2* must match at least one experiment.
#
#   scripts/doccheck.sh                 # the default doc set
#   scripts/doccheck.sh FILE.md...      # these files, with every check
#
# Exits 1 and prints FILE:LINE: reason for every stale reference.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -gt 0 ]; then
	path_docs=("$@")
	exp_docs=("$@")
else
	path_docs=(README.md ROADMAP.md docs/*.md .claude/skills/verify/SKILL.md)
	exp_docs=(README.md docs/*.md .claude/skills/verify/SKILL.md)
fi
set -f # from here on a * in a doc is a pattern to match, never a file glob

# Every file of the checkout by base name, for bare-name references.
declare -A base=()
while IFS= read -r -d '' f; do
	base[${f##*/}]+="${f#./} "
done < <(find . \( -path ./.git -o -path ./.bench_build \) -prune -o -type f -print0)

# The experiments cmd/hybridbench defines: its define("…") and
# figure("…") entries, plus "all".
mapfile -t exps < <(grep -oE '^[[:space:]]*(define|figure)\("[a-z0-9]+"' cmd/hybridbench/main.go |
	sed -E 's/.*"([a-z0-9]+)"/\1/')
exps+=(all)

fail=0
stale() {
	echo "$1: $2" >&2
	fail=1
}

# resolve DOC PATH prints the checkout files PATH may name (one a line),
# and nothing when it names none.
resolve() {
	local doc=$1 p=$2
	if [[ $p != */* ]]; then
		local c
		for c in ${base[$p]:-}; do echo "$c"; done
		return
	fi
	local d
	for d in . internal "$(dirname "$doc")"; do
		if [ -e "$d/$p" ]; then
			echo "${d#./}/$p"
			return
		fi
	done
}

path_re='[A-Za-z0-9_.*-]*(/[A-Za-z0-9_.*-]+)+/?|[A-Za-z0-9_*-]+\.(go|s|sh|md)\b'
for doc in "${path_docs[@]}"; do
	while IFS= read -r hit; do
		ln=${hit%%:*}
		tok=${hit#*:}
		ref=$tok
		nums=
		if [[ $tok =~ ^(.*[^:]):([0-9]+([,-][0-9]+)*)$ ]]; then
			ref=${BASH_REMATCH[1]}
			nums=${BASH_REMATCH[2]}
		fi
		ref=${ref%%#*}
		ref=${ref#./}
		ref=${ref%/...}
		ref=${ref%/}
		while [[ $ref == *[.,-] ]]; do ref=${ref%?}; done
		case $ref in
		'' | /* | _* | *'*'* | *//* | *:*) continue ;; # _*: a suffix such as _test.go
		esac
		if [[ $ref == */* ]]; then
			first=${ref%%/*}
			if ! [ -d "$first" ] && ! [[ ${ref##*/} =~ \.[A-Za-z][A-Za-z0-9]*$ ]]; then
				continue
			fi
		elif ! [[ $ref =~ \.(go|s|sh|md)$ ]]; then
			continue
		fi
		mapfile -t found < <(resolve "$doc" "$ref")
		if [ ${#found[@]} -eq 0 ]; then
			stale "$doc:$ln" "no such path: $ref"
			continue
		fi
		[ -n "$nums" ] || continue
		for n in ${nums//[,-]/ }; do
			ok=0
			for f in "${found[@]}"; do
				if [ -f "$f" ] && [ "$n" -ge 1 ] && [ "$n" -le "$(wc -l <"$f")" ]; then
					ok=1
					break
				fi
			done
			[ $ok = 1 ] || stale "$doc:$ln" "$ref has no line $n"
		done
	done < <(grep -noE -- "($path_re)(:[0-9]+([,-][0-9]+)*)?" "$doc" || true)
done

for doc in "${exp_docs[@]}"; do
	while IFS= read -r hit; do
		ln=${hit%%:*}
		arg=${hit#*:}
		arg=${arg#-exp}
		arg=${arg#[ =]}
		for name in ${arg//[\/|]/ }; do
			known=0
			for x in "${exps[@]}"; do
				# shellcheck disable=SC2053 # a glob such as fig2* matches by pattern
				if [[ $x == $name ]]; then
					known=1
					break
				fi
			done
			[ $known = 1 ] || stale "$doc:$ln" "cmd/hybridbench defines no experiment -exp $name"
		done
	done < <(grep -noE -- '-exp[ =][A-Za-z0-9_*/|]+' "$doc" || true)
done

if [ $fail = 1 ]; then
	exit 1
fi
echo "doccheck: ${#path_docs[@]} docs, every path, path:N and -exp name resolves"
