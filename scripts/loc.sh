#!/usr/bin/env bash
# Net non-test Rust line count: the size metric reported by refactor
# changes. Counts every tracked `*.rs` file outside `perfbench/` and
# outside any `tests/` directory, each up to (not including) its first
# top-level `#[cfg(test)]` line (files deleted in the working tree but
# not yet committed are skipped). Prints one number; gates on nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z -- '*.rs' ':!:perfbench/**' ':!:**/tests/**' ':!:tests/**' \
    | while IFS= read -r -d '' f; do if [[ -f $f ]]; then printf '%s\0' "$f"; fi; done \
    | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' \
    | awk '{ total += $1 } END { print total + 0 }'
