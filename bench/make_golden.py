#!/usr/bin/env python3
"""Record the golden digests of the default seeds in bench/golden.json.

    python3 bench/make_golden.py

Runs one untraced pass of every workload for each default seed, refuses
to write anything if an operation fails its checks, and stores
sha256(document) for every operation whose output is not left out of
the digests (see README.md).  Only run it when a change of output is
intended.
"""

from __future__ import annotations

import json
import os

import run

SEEDS = (0, 1)


def main():
    os.chdir(run.ROOT)
    run.WORK.mkdir(exist_ok=True)
    digests = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            G, built, _ = run.setup(workload, seed)
            judge = run.Judge({})
            run.untraced_run(G, built, 0, judge)
            _, failed, problems = judge.finish()
            if failed:
                raise SystemExit(f"{workload} seed {seed}: {problems[:3]}")
            for op, _, document in judge.first.values():
                if op.golden:
                    digests[op.key] = run.digest(document)
            print(f"{workload} seed {seed}: {len(built.ops)} operations checked")
    run.GOLDEN.write_text(json.dumps({"seeds": list(SEEDS), "digests": dict(sorted(digests.items()))},
                                     indent=0) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {run.GOLDEN.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
