#!/bin/sh
# check_docs.sh — fail if any package in the module lacks a package-level doc
# comment, or if a reference into the code in README.md, ARCHITECTURE.md or
# the verify skill has gone stale. The package check is driven by `go doc`,
# whose rendering makes it simple: for a library package, line 3 of the
# output is the first line of the doc comment ("Package <name> ..."); for a
# main package, the doc comment itself leads the output. CI runs this in the
# docs job; run it locally before sending a change that adds a package or
# moves code a document points at.
set -eu
cd "$(dirname "$0")/.."

status=0
for pkg in $(go list ./...); do
	if [ "$(go list -f '{{.Name}}' "$pkg")" = "main" ]; then
		first=$(go doc "$pkg" 2>/dev/null | head -n 1)
		case "$first" in
		"" | "package "*)
			echo "missing package doc: $pkg"
			status=1
			;;
		esac
	else
		third=$(go doc "$pkg" 2>/dev/null | sed -n '3p')
		case "$third" in
		"Package "*) ;;
		*)
			echo "missing package doc: $pkg"
			status=1
			;;
		esac
	fi
done

if [ "$status" -ne 0 ]; then
	echo "every package needs a package-level comment (see ARCHITECTURE.md); put it in doc.go for multi-file packages" >&2
fi

# References into the code: a backticked `path.go:N` (or `path.go:N–M`)
# must point inside a Go file whose path ends in path.go, and a backticked
# `path.go:Ident` (or `path.go:Type.method`) must name words that such a file
# contains. benchmark/README.md describes a harness that has not caught up
# with the code and is not checked yet; `file.go:Func` is the convention's
# own example (ARCHITECTURE.md, top).
gofiles=$(find . -name '*.go' -not -path './.git/*' -not -path '*/.bench_build/*')
refs=$(for doc in README.md ARCHITECTURE.md .claude/skills/verify/SKILL.md; do
	[ -f "$doc" ] || continue
	awk -v doc="$doc" '{
		line = $0
		while (match(line, /`[^`]*`/)) {
			span = substr(line, RSTART + 1, RLENGTH - 2)
			line = substr(line, RSTART + RLENGTH)
			while (match(span, /[[:alnum:]_.\/-]+\.go:[[:alnum:]_.]+((-|–)[0-9]+)?/)) {
				ref = substr(span, RSTART, RLENGTH)
				span = substr(span, RSTART + RLENGTH)
				if (ref != "file.go:Func") {
					sep = index(ref, ".go:")
					print doc ":" FNR, substr(ref, 1, sep + 2), substr(ref, sep + 4)
				}
			}
		}
	}' "$doc"
done)
stale=$(printf '%s\n' "$refs" | while read -r at path target; do
	[ -n "$at" ] || continue
	found=no
	for f in $gofiles; do
		case "$f" in
		*/"$path") ;;
		*) continue ;;
		esac
		case "$target" in
		[0-9]*)
			# The last line named, past a range's dash.
			last=${target##*[!0-9]}
			[ "$(wc -l <"$f")" -ge "$last" ] && found=yes
			;;
		*)
			found=yes
			for word in $(echo "$target" | tr '.' ' '); do
				grep -qw "$word" "$f" || found=no
			done
			;;
		esac
		[ "$found" = yes ] && break
	done
	[ "$found" = yes ] || echo "$at: \`$path:$target\`"
done)
if [ -n "$stale" ]; then
	echo "stale references into the code (no Go file ending in that path has that line or names that identifier):" >&2
	echo "$stale" >&2
	status=1
fi
exit $status
