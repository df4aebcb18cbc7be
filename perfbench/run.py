"""octorail benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload quiet --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; octorail is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones: set-up time, peak
memory and the median time or rate of each kind of operation, scaled by
reference work timed after each operation (``reference.py``).
With ``--trace 1`` they are the per-layer spans and counts of a fixed
number of rounds, unscaled.  Every run also writes its result, and a traced
run its spans, under ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# one BLAS thread: the benchmark measures single-threaded runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3

import tracing  # noqa: E402  (after the thread settings above)
from reference import REFERENCE_S, reference_seconds  # noqa: E402
from workloads import (WORKLOADS, CheckFailed, load_octorail,  # noqa: E402
                       warm_up)


def _per_layer(tracer):
    calls, total, own, counts = (tracer.calls, tracer.total_s,
                                 tracer.self_s, tracer.counts)
    trials = counts["surface.trials"]
    return {
        "surface.memory_self_s": (own["surface.memory_experiment"], "s"),
        "surface.flip_weights_s": (total["surface.flip_weights"], "s"),
        "surface.graph_build_s": (total["surface.graph_build"], "s"),
        "surface.boundary_dijkstra_s":
            (total["surface.boundary_dijkstra"], "s"),
        "surface.path_crossings_calls":
            (calls["surface.path_crossings"], "count"),
        "surface.path_crossings_s": (total["surface.path_crossings"], "s"),
        "surface.decode_self_s": (own["surface.decode_matching"], "s"),
        "surface.decode_dijkstra_s": (total["surface.decode_dijkstra"], "s"),
        "surface.pairing_exhaustive_calls":
            (calls["surface.pairing_exhaustive"], "count"),
        "surface.pairing_exhaustive_s":
            (total["surface.pairing_exhaustive"], "s"),
        "surface.pairing_blossom_calls":
            (calls["surface.pairing_blossom"], "count"),
        "surface.pairing_blossom_s": (total["surface.pairing_blossom"], "s"),
        "surface.trials": (trials, "count"),
        "surface.decoded_trials": (counts["surface.decoded_trials"], "count"),
        "surface.defects": (counts["surface.defects"], "count"),
        "surface.decoded_share":
            (counts["surface.decoded_trials"] / trials if trials else 0.0,
             "ratio"),
        "networks.x_block_calls": (calls["networks.x_block"], "count"),
        "networks.x_block_s": (total["networks.x_block"], "s"),
        "gates.induced_gate_calls": (calls["gates.induced_gate"], "count"),
        "gates.induced_gate_s": (total["gates.induced_gate"], "s"),
        "gates.least_squares_starts": (calls["gates.least_squares"], "count"),
        "gates.converged_starts": (counts["gates.converged_starts"], "count"),
        "exact.solve_exact_calls": (calls["exact.solve_exact"], "count"),
        "exact.solve_exact_s": (total["exact.solve_exact"], "s"),
        "surface.macronode_model_s": (total["surface.macronode_model"], "s"),
        "surface.verify_relation_calls":
            (calls["surface.verify_relation"], "count"),
        "surface.verify_relation_s": (total["surface.verify_relation"], "s"),
        "surface.record_solver_calls":
            (calls["surface.record_solver"], "count"),
        "surface.record_solver_s": (total["surface.record_solver"], "s"),
        "permutations.closure_s": (total["permutations.closure"], "s"),
        "permutations.cosets_s": (total["permutations.cosets"], "s"),
        "permutations.basis_transform_calls":
            (calls["permutations.basis_transform"], "count"),
        "gkp.bell_amplitude_calls": (calls["gkp.bell_amplitude"], "count"),
        "gkp.bell_amplitude_s": (total["gkp.bell_amplitude"], "s"),
        "gkp.qunaught_amplitude_calls":
            (calls["gkp.qunaught_amplitude"], "count"),
        "gkp.qunaught_amplitude_s": (total["gkp.qunaught_amplitude"], "s"),
        "gkp.magic_probe_single_s": (total["gkp.magic_probe_single"], "s"),
        "gkp.damping_kernel_calls": (calls["gkp.damping_kernel"], "count"),
        "gkp.damping_kernel_s": (total["gkp.damping_kernel"], "s"),
    }


#: kind of operation -> (end-to-end metric, unit, reported as a rate).
#: Each is the median over the run's operations of that kind of the seconds
#: per item (trial, search, sample), or its inverse for a rate.
END_TO_END = {
    "memory": ("trials_per_s", "trials/s", True),
    "verify": ("verify_s", "s", False),
    "records": ("records_s", "s", False),
    "angles": ("angle_solve_s", "s", False),
    "probe": ("probe_samples_per_s", "samples/s", True),
}


class Run:
    """Operations attempted and failed, op times by kind and check failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.item_s = defaultdict(list)
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = {}
        self.pkg = load_octorail()

    def round(self, index, tracer=None, reference=None):
        """Run round ``index``; with a ``reference`` list, append one
        reference pass after each operation."""
        for op in self.workload.rounds(self.seed, index):
            if op.fresh:
                self.pkg = load_octorail(fresh=True)
            replaced = tracing.install(tracer) if tracer else []
            try:
                if tracer:
                    tracer.enabled = True
                start = time.perf_counter()
                out = op.run(self.pkg)
                seconds = time.perf_counter() - start
            finally:
                if tracer:
                    tracer.enabled = False
                tracing.uninstall(replaced)
            self.item_s[op.kind].append(seconds / op.items)
            self.busy_s += seconds
            self.attempted += 1
            try:
                self.failed += bool(op.check(self.pkg, out))
                self.first.setdefault(op.kind, (op, out))
            except CheckFailed as exc:
                self.errors.append(str(exc))
            if threading.active_count() != 1:
                self.errors.append(
                    f"{op.kind}: octorail left a thread running")
            if reference is not None:
                reference.append(reference_seconds())

    def repeat_checks(self):
        for op, out in self.first.values():
            if hasattr(op, "repeat_check"):
                try:
                    op.repeat_check(self.pkg, out)
                except CheckFailed as exc:
                    self.errors.append(str(exc))


def _setup_seconds():
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py")],
        capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
    return float(out.stdout.split()[-1])


def end_to_end(workload, seed, seconds):
    """Time whole rounds for ``seconds``; timings are scaled by the median
    reference pass of the run (see reference.py)."""
    reference, setup = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(_setup_seconds())
        reference.append(reference_seconds())
    run = Run(workload, seed)
    warm_up(run.pkg)
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        run.round(index, reference=reference)
        index += 1
    run.repeat_checks()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = REFERENCE_S / statistics.median(reference)
    metrics = {"setup_s": (statistics.median(setup) * scale, "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    raw = {}
    for kind, (name, unit, rate) in END_TO_END.items():
        item_s = statistics.median(run.item_s[kind])
        raw[name] = 1 / item_s if rate else item_s
        metrics[name] = (1 / (item_s * scale) if rate else item_s * scale,
                         unit)
    return run, metrics, {"rounds": index, "setup_samples_s": setup,
                          "reference_s": reference, "unscaled_medians": raw}


def traced(workload, seed, seconds):
    """Run the same rounds untraced, then traced.  The round count follows
    from --seconds and the workload's nominal round time only, so the counts
    repeat exactly for the same seed."""
    rounds = max(1, math.ceil(seconds / (2 * workload.nominal_round_s)))
    plain = Run(workload, seed)
    warm_up(plain.pkg)
    for index in range(rounds):
        plain.round(index)
    tracer = tracing.Tracer()
    run = Run(workload, seed)
    for index in range(rounds):
        run.round(index, tracer)
    run.repeat_checks()
    plain_s, traced_s = plain.busy_s, run.busy_s
    metrics = _per_layer(tracer)
    metrics.update({
        "trace.ops": (run.attempted, "count"),
        "trace.spans": (len(tracer.span_start), "count"),
        "trace.overhead_pct": (100 * (traced_s - plain_s) / plain_s, "%"),
    })
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload.name}-seed{seed}.spans.npz"
    tracer.write(spans)
    return run, metrics, {"rounds": rounds, "untraced_item_s": plain.item_s,
                          "spans_file": spans.name}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "octorail" / "__init__.py").is_file():
        parser.exit(2, f"perfbench: no octorail sources under {src}\n")
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    run, metrics, detail = measure(workload, args.seed, args.seconds)
    for message in run.errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS / name, "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "item_s": run.item_s,
                   "errors": run.errors, **detail}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
