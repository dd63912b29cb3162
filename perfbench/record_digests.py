"""Record the output digest of every document of the recorded seeds.

    python3 perfbench/record_digests.py

Runs each workload's op once per distinct document of seeds 1-10, refuses
to record an output that fails its verdicts or independent counts, and
rewrites `perfbench/digests.json`.  Later runs on these seeds then compare
output bytes, not only verdicts.  Run it only at the commit whose output
the digests stand for.
"""

from __future__ import annotations

import json
import sys

import docgen
from run import ROOT, import_greenskel
from workloads import DIGESTS, OPS, doc_key, expected_problems, output_digest

# The seeds the digests are recorded for; see README.md, "Seeds".
SEEDS = range(1, 11)


def main():
    gs = import_greenskel()
    record = {"outputs": {}, "seeds": {}}
    for workload in sorted(docgen.WORKLOADS):
        table = record["outputs"][workload] = {}
        for seed in SEEDS:
            for doc in docgen.WORKLOADS[workload](seed, ROOT):
                key = doc_key(doc)
                if key in table:
                    continue
                result = OPS[workload](gs, doc, gs.cli.parse(doc.text))
                problems = expected_problems(workload, doc, result)
                if problems:
                    print(f"{workload} seed {seed} {doc.name}: {problems}", file=sys.stderr)
                    return 1
                table[key] = output_digest(result)
            print(f"{workload} seed {seed}: {len(table)} digests", flush=True)
        record["seeds"][workload] = list(SEEDS)
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
