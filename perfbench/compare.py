#!/usr/bin/env python3
"""Compares two benchmark result files, or refuses to.

    python3 perfbench/compare.py BASE.json HEAD.json

perfbench/run.py writes one result file per run under .bench_build/results/.
Two results are comparable only when everything that shapes the measurement
matches: the host's nproc, every pinned thread count (pool, server workers,
client threads and connections), the SIMD dispatch level, the pipeline mode,
compiler, build type, workload, seed, run length, the number of set-ups and
the workload's whole configuration, and the trace mode. Only `source` (the
git commit or source-tree hash) may differ: it is what a comparison
compares. When anything else differs the script names each differing field
and exits with code 2 without printing a single delta.
"""

import json
import sys

SUBJECT = "source"


def fingerprint_mismatches(base, head):
    """(field, base value, head value) for every field other than SUBJECT
    whose values differ between two results."""
    fields = sorted((set(base["fingerprint"]) | set(head["fingerprint"])) -
                    {SUBJECT})
    diffs = [(f, base["fingerprint"].get(f), head["fingerprint"].get(f))
             for f in fields
             if base["fingerprint"].get(f) != head["fingerprint"].get(f)]
    if base.get("trace") != head.get("trace"):
        diffs.append(("trace", base.get("trace"), head.get("trace")))
    return diffs


def deltas(base, head):
    """(section, metric, unit, base value, head value, relative change)."""
    rows = []
    for section in ("end_to_end", "per_layer"):
        shared = sorted(set(base.get(section, {})) & set(head.get(section, {})))
        for name in shared:
            b = base[section][name]["value"]
            h = head[section][name]["value"]
            rel = (h - b) / b if b else None
            rows.append((section, name, base[section][name]["unit"], b, h, rel))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        head = json.load(f)
    mismatches = fingerprint_mismatches(base, head)
    if mismatches:
        print("refusing to compare: the fingerprints differ")
        for field, b, h in mismatches:
            print("  %s: %s != %s" % (field, json.dumps(b), json.dumps(h)))
        return 2
    print("%s -> %s" % (base["fingerprint"][SUBJECT],
                        head["fingerprint"][SUBJECT]))
    for section, name, unit, b, h, rel in deltas(base, head):
        change = "%+8.2f%%" % (100 * rel) if rel is not None else "       -"
        print("%-10s %-32s %14.6g %14.6g %s %s" %
              (section, name, b, h, change, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
