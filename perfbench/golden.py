"""Write the golden digests of the `exact` workload's outputs.

Usage, from the root of a checkout:

    python3 perfbench/golden.py SEEDS > perfbench/golden_exact.json

For each seed in range(SEEDS) this runs the fixed prefix of the seeded
task stream (the first `min_blocks` blocks) and digests the canonical
JSON of its Euclid traces, coset words and W+(E8) normal forms.  A run
of the benchmark on one of these seeds compares its own digest with the
stored one and reports `correct: false` on a mismatch, so a kernel
rewrite that changes a trace or a word shows.  Regenerate only when the
task stream itself changes, never to absorb a changed output.
"""

from __future__ import annotations

import json
import sys

import common


def main():
    n = int(sys.argv[1])
    common.use_checkout_sources()
    import tasks
    wl = tasks.Exact()
    wl.prepare()
    digests = {}
    for seed in range(n):
        records = []
        for b in range(wl.min_blocks):
            for kind, inputs in wl.block(seed, b):
                records.append(wl.canonical(kind, inputs, kind.run(inputs)))
        digests[str(seed)] = tasks.digest(records)
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    json.dump({"workload": "exact", "min_blocks": wl.min_blocks,
               "block_size": wl.block_size, "digests": digests},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
