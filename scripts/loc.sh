#!/usr/bin/env bash
# Per-crate `src` line counts, split into code and `#[cfg(test)]` modules
# (ROADMAP: "net line count per crate is a tracked number"). The total
# equals `find crates -path '*src*' -name '*.rs' | xargs cat | wc -l`.
#
# A file's test part runs from its first line-initial `#[cfg(test)]` to the
# end (the workspace convention: one trailing `mod tests`); files under a
# `src/**/tests/` directory count as tests whole.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-12s %8s %8s %8s\n' crate code tests total
sum_code=0
sum_tests=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    code=0
    tests=0
    while IFS= read -r file; do
        lines=$(wc -l <"$file")
        case "$file" in
        */src/*/tests/*) first=1 ;;
        *) first=$(grep -n -m1 '^#\[cfg(test)\]' "$file" | cut -d: -f1 || true) ;;
        esac
        t=0
        if [ -n "$first" ]; then
            t=$((lines - first + 1))
        fi
        tests=$((tests + t))
        code=$((code + lines - t))
    done < <(find "$dir" -path '*src*' -name '*.rs' | sort)
    printf '%-12s %8d %8d %8d\n' "$crate" "$code" "$tests" $((code + tests))
    sum_code=$((sum_code + code))
    sum_tests=$((sum_tests + tests))
done
printf '%-12s %8d %8d %8d\n' total "$sum_code" "$sum_tests" $((sum_code + sum_tests))
