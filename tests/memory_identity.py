"""Seeded memory results of 126 configurations, recorded and rechecked.

``python tests/memory_identity.py`` recomputes every configuration listed in
``tests/data/memory_identity.json`` with ``octorail.memory.memory_experiment``
and exits with status 1 unless each ``MemoryResult`` equals its recorded
tuple exactly.  ``python tests/memory_identity.py --record`` rewrites the
file from the current code; only a change that means to move seeded results
(a new noise model, say) does that, and says so.

The configurations are d in {3, 5, 7} x {7, 11, 13} dB x rounds {1, 3} x
seeds 0-3 at 300 trials; trial counts on both sides of the 256-trial block
at (11 dB, 3 rounds, seed 1) and (7 dB, 1 round, seed 2) per distance; and
six further cases: 2049 trials, and 3, 20, 36 and 40 dB.
"""

import dataclasses
import json
import pathlib
import sys

from octorail.memory import memory_experiment

PATH = pathlib.Path(__file__).parent / "data" / "memory_identity.json"


def configurations():
    grid = [(d, db, rounds, 300, seed) for d in (3, 5, 7)
            for db in (7.0, 11.0, 13.0) for rounds in (1, 3)
            for seed in range(4)]
    blocks = [(d, db, rounds, trials, seed) for d in (3, 5, 7)
              for db, rounds, seed in ((11.0, 3, 1), (7.0, 1, 2))
              for trials in (255, 256, 257, 600, 1023, 1024, 1025, 1100)]
    further = [(3, 11.0, 3, 2049, 5), (5, 3.0, 3, 300, 6),
               (3, 20.0, 3, 300, 7), (5, 36.0, 2, 300, 8),
               (7, 40.0, 3, 300, 9), (7, 11.0, 2, 2049, 10)]
    return grid + blocks + further


def result(config):
    return list(dataclasses.astuple(memory_experiment(*config)))


def main(argv):
    if argv == ["--record"]:
        cases = [{"config": list(c), "result": result(c)}
                 for c in configurations()]
        PATH.write_text("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n")
        print(f"recorded {len(cases)} configurations in {PATH}")
        return 0
    if argv:
        sys.exit("usage: python tests/memory_identity.py [--record]")
    cases = json.loads(PATH.read_text())
    bad = 0
    for case in cases:
        got = result(case["config"])
        if got != case["result"]:
            bad += 1
            print(f"{case['config']}: recorded {case['result']}, got {got}",
                  file=sys.stderr)
    print(f"{len(cases) - bad} of {len(cases)} configurations identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
