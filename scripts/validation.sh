#!/bin/sh
# Runs the metamorphic invariant check on every workload, as CI does
# (`aprof-trace check -quick -level deep -renumber 48 -v`), and fails if
# the check fails or its output differs from the fenced block of
# docs/VALIDATION.md. With -update it rewrites that block from the output
# instead. Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."
doc=docs/VALIDATION.md
out=$(mktemp)
trap 'rm -f "$out" "$out.doc"' EXIT

status=0
go run ./cmd/aprof-trace check -quick -level deep -renumber 48 -v >"$out" || status=$?
cat "$out"
if [ "$status" -ne 0 ]; then
	exit "$status"
fi

if [ "${1:-}" = -update ]; then
	awk -v out="$out" '
		/^```text$/ && !done { print; while ((getline line < out) > 0) print line; skip = 1; next }
		skip && /^```$/ { skip = 0; done = 1 }
		!skip { print }
	' "$doc" >"$out.doc"
	cp "$out.doc" "$doc"
	echo "validation: rewrote the block of $doc"
	exit 0
fi

if ! sed -n '/^```text$/,/^```$/{//!p;}' "$doc" | diff -u - "$out"; then
	echo "validation: $doc does not match the output above; regenerate it with" >&2
	echo "  sh scripts/validation.sh -update" >&2
	exit 1
fi
echo "validation: $doc matches"
