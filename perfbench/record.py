"""Record the reference output digests the benchmark checks against.

Usage, from the repository root::

    python3 perfbench/record.py --workload campaign --seeds 0-99

Runs one full-size pass (set-up plus timed region) per seed and merges its
digest into ``references.json`` under ``<workload>/full``. Record only from
a commit whose outputs are known to be right: later runs at these seeds
fail on any difference.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-99")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    _layers, workloads = bench._import_program()
    spec = workloads.WORKLOADS[args.workload]
    out = bench.REFERENCES
    references = json.loads(out.read_text()) if out.is_file() else {}
    table = references.setdefault(f"{args.workload}/full", {})
    for seed in seeds:
        inputs = spec.make_inputs(seed, "full")
        result = spec.measure(spec.setup(inputs), inputs)
        if result.failed:
            print(f"seed {seed}: {result.failed} failed operations", file=sys.stderr)
            return 1
        table[str(seed)] = result.digest
        out.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} seed {seed}: {result.digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
