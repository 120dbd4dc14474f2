#!/usr/bin/env bash
# Prints the golden digests of the four fixture cases: the flat flow, the
# mixed-size flow (mLG and cGP), a four-level V-cycle and one ECO call
# warm-started from the checkpoint of its own base placement. The output
# must equal expected.txt at every worker count (recorded on amd64):
#   go build -o eplace ./cmd/eplace
#   bash testdata/digests/run.sh ./eplace 7 | diff testdata/digests/expected.txt -
set -euo pipefail
eplace=$(realpath "$1")
workers=${2:-1}
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

digests() {
	"$eplace" "$@" -q -digests -workers "$workers" | grep '^digest'
}
echo "# -synth 5000 -seed 3"
digests -synth 5000 -seed 3
echo "# -synth 4000 -macros 16 -density 0.8 -seed 2"
digests -synth 4000 -macros 16 -density 0.8 -seed 2
echo "# -synth 20000 -levels 4 -seed 5"
digests -synth 20000 -levels 4 -seed 5
echo "# -synth 3000 -seed 4"
digests -synth 3000 -seed 4 -checkpoint-dir "$tmp/ck"
echo "# -synth 3000 -seed 4 -eco eco_edits.json -from latest.ckpt"
digests -synth 3000 -seed 4 -eco "$here/eco_edits.json" -from "$tmp/ck/latest.ckpt"
