#!/usr/bin/env bash
# Same-machine A/B run of one perfbench workload: a base revision against
# the working tree.
#
#   scripts/ab.sh BASE_REV WORKLOAD PAIRS SECONDS FIRST_SEED
#
# Checks BASE_REV out into a scratch clone (the repository itself is left
# untouched), then runs `python3 perfbench/run.py --trace 0` PAIRS times on
# each side, on seeds FIRST_SEED, FIRST_SEED+1, ..., alternating which side
# goes first. Each side builds into its own target directory. The reports
# are collected into AB_DIR/base and AB_DIR/candidate, and
# `perfbench/compare.py` is run on the two. Then every seed must have the
# same golden hashes (`golden_hash`, and `snapshot_golden_hash` where a
# workload reports one) on both sides. The script exits 0 only when
# compare.py does and every hash agrees.
#
# Environment: AB_DIR (default: a new temporary directory) holds the
# clone, both target directories and the reports; the clone is removed on
# exit, the reports and builds are kept. The script refuses to start when
# AB_DIR/base or AB_DIR/candidate already holds a report, since compare.py
# would pool it into the verdict; the target directories may be reused.
# Seeds should be held out: not the ones a change was developed or tuned on.
set -euo pipefail

if [[ $# -ne 5 ]]; then
    echo "usage: $0 BASE_REV WORKLOAD PAIRS SECONDS FIRST_SEED" >&2
    exit 2
fi
base_rev=$1 workload=$2 pairs=$3 seconds=$4 first_seed=$5
root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
ab=${AB_DIR:-$(mktemp -d)}
mkdir -p "$ab"
ab=$(cd "$ab" && pwd)
clone="$ab/base-src"
for side in base candidate; do
    if compgen -G "$ab/$side/*.json" >/dev/null; then
        echo "ab: $ab/$side already holds reports; use a new AB_DIR or empty it" >&2
        exit 2
    fi
done

cleanup() { rm -rf "$clone"; }
trap cleanup EXIT
rm -rf "$clone"
git clone --quiet --shared --no-checkout "$root" "$clone"
git -C "$clone" checkout --quiet --detach "$commit"
mkdir -p "$ab/base" "$ab/candidate"

# run SIDE SEED: one untraced run of the workload on one side.
run() {
    local side=$1 seed=$2 src target
    if [[ $side == base ]]; then src=$clone; else src=$root; fi
    target="$ab/target-$side"
    echo "ab: $side seed $seed" >&2
    (cd "$src" && CARGO_TARGET_DIR="$target" python3 perfbench/run.py \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$ab/$side" >/dev/null)
}

echo "ab: base $commit vs working tree $root, $workload, $pairs pairs of ${seconds}s, seeds from $first_seed" >&2
for ((p = 0; p < pairs; p++)); do
    seed=$((first_seed + p))
    if ((p % 2 == 0)); then
        run base "$seed"
        run candidate "$seed"
    else
        run candidate "$seed"
        run base "$seed"
    fi
done
status=0
python3 "$root/perfbench/compare.py" "$ab/base" "$ab/candidate" || status=$?

# Both sides must reach the same golden hashes on every seed.
python3 - "$ab/base" "$ab/candidate" <<'EOF_PY' || status=1
import glob, json, sys

def hashes(side):
    out = {}
    for path in glob.glob(side + "/*.json"):
        with open(path) as f:
            report = json.load(f)
        info = report["info"]
        out[report["seed"]] = {k: info[k] for k in ("golden_hash", "snapshot_golden_hash") if k in info}
    return out

base, cand = hashes(sys.argv[1]), hashes(sys.argv[2])
bad = [s for s in sorted(set(base) | set(cand)) if base.get(s) != cand.get(s)]
for s in bad:
    print(f"ab: seed {s}: base hashes {base.get(s)} != candidate {cand.get(s)}", file=sys.stderr)
if not bad:
    print(f"ab: golden hashes agree on all {len(base)} seeds", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF_PY
exit "$status"
