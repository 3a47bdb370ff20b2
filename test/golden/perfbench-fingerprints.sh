#!/bin/sh
# Golden perfbench fingerprints: run every workload on the pinned seeds
# once, untraced, and compare the MD5 fingerprint of each run's simulated
# event sequence with the committed manifest.
#
#   test/golden/perfbench-fingerprints.sh           # check (exit 1 on a diff)
#   test/golden/perfbench-fingerprints.sh --update  # regenerate the manifest
#
# Run from the root of a source checkout. A change that alters a
# simulation's outcome on purpose regenerates the manifest and lists the
# changed lines in CHANGES.md.
set -eu

manifest=test/golden/perfbench-fingerprints.txt
workloads="pair_udp_bulk star_small_pdu fattree_transport"
seeds="1 2 3 1009"

dune build perfbench/bench.exe
bench=_build/default/perfbench/bench.exe

current=$(mktemp)
trap 'rm -f "$current"' EXIT
for w in $workloads; do
  for s in $seeds; do
    fp=$("$bench" --workload "$w" --seed "$s" | tail -n 1 |
      sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
    if [ -z "$fp" ]; then
      echo "perfbench $w seed $s: no fingerprint (run failed its gate?)" >&2
      exit 1
    fi
    echo "$w $s $fp" >>"$current"
  done
done

if [ "${1:-}" = "--update" ]; then
  cp "$current" "$manifest"
  echo "wrote $manifest"
elif diff -u "$manifest" "$current"; then
  echo "perfbench fingerprints match $manifest"
else
  echo "perfbench fingerprints differ from $manifest" >&2
  exit 1
fi
