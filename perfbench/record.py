"""Record the reference output digest of every unit for some seeds.

Usage, from the repository root::

    python3 perfbench/record.py --seeds 0-9 --workloads matrix,ingest,lifetime

Runs each unit once per seed, untimed, and merges the digests into
``perfbench/references.json``, which ``run.py`` checks every unit
against.  Record only from a commit whose outputs are known good: the
golden digests are checked first and nothing is written if they fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench_run  # noqa: E402


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="one seed or an inclusive range such as 0-9")
    parser.add_argument("--workloads", default="matrix,ingest,lifetime")
    args = parser.parse_args(argv)
    if not bench_run.prepare():
        return 2
    from perfbench.units import WORKLOADS

    problem = bench_run.check_goldens()
    if problem is not None:
        print(f"perfbench: {problem}; not recording", file=sys.stderr)
        return 1
    references = json.loads(bench_run.REFERENCES.read_text())
    for name in args.workloads.split(","):
        bench = WORKLOADS[name]
        for seed in args.seeds:
            bench_run.fresh_state()
            digests = {unit.uid: bench.digest(bench.run(unit, seed))
                       for unit in bench.units}
            references.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} units", flush=True)
            bench_run.REFERENCES.write_text(
                json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
