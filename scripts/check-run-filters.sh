#!/usr/bin/env bash
# Fails when a `go test -run '<pattern>' <packages>` filter in the CI
# workflow selects nothing. go test passes silently when a filter matches
# no test, so renaming a test would quietly drop it from the race/repeat
# runs; this check makes the rename fail CI instead. Every |-separated
# alternative of every filter must match at least one test, benchmark,
# example or fuzz target in the packages that line runs.
#
#   bash scripts/check-run-filters.sh [workflow]   # default .github/workflows/ci.yml
#
# Run from the repository root.
set -euo pipefail

wf="${1:-.github/workflows/ci.yml}"
status=0
checked=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	pkgs=$(sed -E "s/.*-run '[^']*'[[:space:]]+//" <<<"$line")
	# One listing per line; the alternatives are matched against it the way
	# -run matches: an unanchored regular expression per name.
	# shellcheck disable=SC2086 # pkgs is a word list
	names=$(go test -list . $pkgs | grep -Ev '^(ok|\?|FAIL)[[:space:]]' || true)
	IFS='|' read -r -a alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		if ! grep -Eq -- "$alt" <<<"$names"; then
			echo "run filter '$alt' (from -run '$pattern' $pkgs) matches no test" >&2
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" "$wf")

if [ "$checked" -eq 0 ]; then
	echo "no -run filters found in $wf" >&2
	exit 1
fi
echo "checked $checked run-filter alternatives in $wf"
exit "$status"
