#!/usr/bin/env bash
# Per-crate `src` line counts, split into code and `#[cfg(test)]` modules
# (ROADMAP: "net line count per crate is a tracked number"), and the count
# of public items in the code part. The line total equals
# `find crates -path '*src*' -name '*.rs' | xargs cat | wc -l`.
#
# A file's test part runs from its first line-initial `#[cfg(test)]` to the
# end (the workspace convention: one trailing `mod tests`); files under a
# `src/**/tests/` directory count as tests whole. `pub` counts the lines of
# the code part that open a `pub fn|struct|enum|trait|const|type|mod`
# (methods included; `pub(crate)`, re-exports and fields are not). `logic`
# counts the lines of the code part that are neither blank nor a `//`
# comment (doc comments included), so trimming prose does not read as
# simpler code.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-12s %8s %8s %8s %8s %6s\n' crate code logic tests total pub
sum_code=0
sum_logic=0
sum_tests=0
sum_pub=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    code=0
    logic=0
    tests=0
    pub=0
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
        p=$(head -n $((lines - t)) "$file" |
            grep -cE '^\s*pub (fn|struct|enum|trait|const|type|mod) ' || true)
        pub=$((pub + p))
        l=$(head -n $((lines - t)) "$file" | grep -cvE '^\s*(//|$)' || true)
        logic=$((logic + l))
    done < <(find "$dir" -path '*src*' -name '*.rs' | sort)
    printf '%-12s %8d %8d %8d %8d %6d\n' "$crate" "$code" "$logic" "$tests" $((code + tests)) "$pub"
    sum_code=$((sum_code + code))
    sum_logic=$((sum_logic + logic))
    sum_tests=$((sum_tests + tests))
    sum_pub=$((sum_pub + pub))
done
printf '%-12s %8d %8d %8d %8d %6d\n' total "$sum_code" "$sum_logic" "$sum_tests" $((sum_code + sum_tests)) "$sum_pub"
