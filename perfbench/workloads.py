"""The benchmark's workloads: their seeded inputs, operations and checks.

A workload is a list of rounds; round ``i`` of a run with seed ``s`` is
built from ``SeedSequence([s, i])`` alone, so the same seed and round index
give the same inputs in every run.  Each operation's ``run`` is what the
benchmark times; ``check`` runs afterwards, untimed.  ``check`` raises
``CheckFailed`` when an output is wrong and returns True when the operation
failed in the way its workload documents (the threshold probe).  An
operation's ``kind`` names the end-to-end metric it feeds, ``items`` counts
its units of work (trials, probe samples) and ``fresh`` says whether it is
timed from a freshly imported octorail.

Both workloads differ only in the memory regime.  Each round also runs the
same exact-layer and grid operations, so that every run reports every
end-to-end metric, and each kind's samples fall throughout the run rather
than in one stretch of it.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def load_octorail(fresh=False):
    """The octorail modules a workload calls.  With ``fresh``, every octorail
    module is imported again, so module-level caches start empty, as in a
    new ``octorail`` process; numpy, scipy and networkx stay imported."""
    if fresh:
        for key in [k for k in sys.modules if k.split(".")[0] == "octorail"]:
            del sys.modules[key]
    importlib.import_module("octorail.cli")
    return {name: sys.modules["octorail." + name] for name in
            ("cli", "exact", "gates", "gkp", "networks", "permutations",
             "surface")}


def _rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _seed32(rng):
    return int(rng.integers(2 ** 31))


# --------------------------------------------------------------------------
# memory experiment
# --------------------------------------------------------------------------

def wilson(failures, trials, z=1.96):
    """Wilson score interval, written out here apart from the program's."""
    p = failures / trials
    z2n = z * z / trials
    centre = (p + z2n / 2) / (1 + z2n)
    half = (z / (1 + z2n)) * math.sqrt(p * (1 - p) / trials
                                       + z2n / (4 * trials))
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass(frozen=True)
class MemoryBatches:
    """One call of ``memory_experiment`` per batch
    (distance, dB, rounds, trials, seed).  With ``threshold`` the op is a
    probe of a d = 5 and a d = 7 batch, and it fails when the d = 7
    interval lies wholly above the d = 5 one."""

    kind: ClassVar[str] = "memory"
    fresh: ClassVar[bool] = False
    batches: tuple
    threshold: bool = False

    @property
    def items(self):
        return sum(b[3] for b in self.batches)

    def run(self, pkg):
        return [pkg["surface"].memory_experiment(*b) for b in self.batches]

    def check(self, pkg, results):
        for (d, db, rounds, trials, seed), r in zip(self.batches, results):
            _require((r.distance, r.squeezing_db, r.rounds, r.trials, r.seed)
                     == (d, db, rounds, trials, seed),
                     f"result does not echo its inputs: {r}")
            _require(0 <= r.failures <= trials
                     and r.rate == r.failures / trials,
                     f"rate is not failures / trials: {r}")
            low, high = wilson(r.failures, trials)
            _require(abs(r.ci_low - low) <= 1e-12
                     and abs(r.ci_high - high) <= 1e-12,
                     f"Wilson interval {r.ci_low, r.ci_high} "
                     f"!= {low, high}: {r}")
        if self.threshold:
            d5, d7 = results
            return d7.ci_low > d5.ci_high
        return False

    def repeat_check(self, pkg, results):
        """The first batch, run again with its seed, gives the same result."""
        again = pkg["surface"].memory_experiment(*self.batches[0])
        # fields, not objects: octorail may have been imported afresh since
        _require(dataclasses.astuple(again) == dataclasses.astuple(results[0]),
                 f"seeded batch not reproducible: {again} != {results[0]}")


QUIET = (5, 13.0, 3)
QUIET_TRIALS = 256
QUIET_BATCHES = 8
THRESHOLD_DB = 11.0
THRESHOLD_TRIALS = 400
SEEDED_PROBE_TRIALS = 200
#: Seeds of the reference threshold probe.  They do not depend on --seed:
#: the probe fails every time while the decoder's fault stands, so the share
#: of failed operations is the same in every run.
REFERENCE_PROBE_SEEDS = (5, 7)


def _probe(trials, seed5, seed7, threshold):
    return MemoryBatches(((5, THRESHOLD_DB, 3, trials, seed5),
                          (7, THRESHOLD_DB, 3, trials, seed7)), threshold)


# --------------------------------------------------------------------------
# exact layer
# --------------------------------------------------------------------------

def numpy_s_matrix():
    """The level-2 splitter matrix composed in floats from its three layers
    of 2x2 balanced beamsplitters [[1, -1], [1, 1]]/sqrt2."""
    h = 1 / math.sqrt(2)
    s = np.eye(8)
    for bit in (1, 2, 4):
        layer = np.eye(8)
        for j in range(8):
            if not j & bit:
                k = j | bit
                layer[np.ix_([j, k], [j, k])] = [[h, -h], [h, h]]
        s = layer @ s
    return s


@dataclass(frozen=True)
class VerifyAll:
    """One ``verify-all`` pass."""

    kind: ClassVar[str] = "verify"
    fresh: ClassVar[bool] = True
    items: ClassVar[int] = 1

    def run(self, pkg):
        return pkg["cli"].run_verification_suites()

    def check(self, pkg, report):
        failing = [e["name"] for e in report if not e["pass"]]
        _require(report and not failing, f"verify-all fails: {failing}")
        return False

    def repeat_check(self, pkg, report):
        s_exact = pkg["networks"].x_block(pkg["networks"].build_network(2))
        s = numpy_s_matrix()
        _require(np.abs(s_exact.to_float() - s).max() <= 1e-15,
                 "x_block(build_network(2)) differs from the composed layers")
        _require(np.abs(s @ s.T - np.eye(8)).max() <= 1e-15,
                 "S S^T is not the identity")
        # the allowed group is AGL(3, 2): 2^3 translations times |GL(3, 2)|
        order = 2 ** 3 * (8 - 1) * (8 - 2) * (8 - 4)
        perms = pkg["permutations"]
        _require(len(perms.generate_allowed()) == order == 1344,
                 "allowed group order is not 1344")
        _require(len(perms.cosets()) == math.factorial(8) // order,
                 "coset count is not 8!/1344")


@dataclass(frozen=True)
class DeriveRecords:
    """Derive the displacement records of all 20 quadrature relations,
    starting from all-zero records."""

    kind: ClassVar[str] = "records"
    fresh: ClassVar[bool] = True
    items: ClassVar[int] = 1

    def run(self, pkg):
        surface = pkg["surface"]
        zero = {f"m{d}": pkg["exact"].ExactCoeff(0) for d in range(1, 9)}
        derived = []
        for role, rels in (("even-data", surface.EVEN_DATA_RELATIONS),
                           ("odd-data", surface.ODD_DATA_RELATIONS)):
            basis = surface.basis_preset(role)
            for rel in rels:
                probe = dataclasses.replace(rel, displacement=zero)
                verdict = surface.verify_relation(probe, basis)
                record = (zero if verdict.exact
                          else verdict.derived_displacement)
                derived.append((rel, basis, record))
        return derived

    def check(self, pkg, derived):
        surface = pkg["surface"]
        _require(len(derived) == 20, "expected 20 relations")
        for rel, basis, record in derived:
            _require(record is not None,
                     f"{rel.output_label}: no record derived")
            again = surface.verify_relation(
                dataclasses.replace(rel, displacement=record), basis)
            _require(again.exact, f"{rel.output_label}: derived record gives "
                                  f"{again.status}")
        return False


#: Targets V(theta1, theta2) of the angle searches.  They are the same in
#: every round and every run: the search time varies twofold between
#: targets, and drawing them from --seed would put that into the spread.
ANGLE_TARGETS = ((0.3, 1.1), (-1.2, -0.4))


@dataclass(frozen=True)
class SolveAngles:
    """One angle search for each single-mode target V(theta1, theta2)."""

    kind: ClassVar[str] = "angles"
    fresh: ClassVar[bool] = True
    items: ClassVar[int] = len(ANGLE_TARGETS)

    def run(self, pkg):
        gates = pkg["gates"]
        targets = [gates.teleported_gate_v(*t) for t in ANGLE_TARGETS]
        return [(target, gates.solve_angles(target, 1)) for target in targets]

    def check(self, pkg, out):
        for target, solution in out:
            _require(solution.reachable, f"target not reached: {solution}")
            rebuilt = pkg["gates"].teleported_gate_v(*solution.angles).matrix
            dev = float(np.abs(rebuilt - target.matrix).max())
            _require(dev <= 1e-6, f"angles {solution.angles} miss the "
                                  f"target by {dev:.3e}")
        return False


# --------------------------------------------------------------------------
# grid simulator
# --------------------------------------------------------------------------

PROBE_SAMPLES = 8


@dataclass(frozen=True)
class MagicProbe:
    """``heterodyne_magic_probe`` with a few seeded samples."""

    kind: ClassVar[str] = "probe"
    fresh: ClassVar[bool] = False
    items: ClassVar[int] = PROBE_SAMPLES

    delta_sq: float
    seed: int

    def run(self, pkg):
        return pkg["gkp"].heterodyne_magic_probe(self.delta_sq,
                                                 PROBE_SAMPLES, self.seed)

    def check(self, pkg, result):
        _require(len(result.samples) == PROBE_SAMPLES, "sample count")
        for s in result.samples:
            _require(float(np.linalg.norm(s.bloch)) <= 1 + 1e-9,
                     f"Bloch vector longer than 1: {s}")
            _require(s.weight > 0, f"weight not positive: {s}")
            _require(0 <= s.projection_fidelity <= 1 + 1e-12,
                     f"projection fidelity outside [0, 1]: {s}")
        return False


# --------------------------------------------------------------------------
# rounds
# --------------------------------------------------------------------------

def _shared_ops(rng):
    """The exact-layer and grid operations of every round.  The short ones
    come more than once, so that each kind has several samples per run."""
    probes = [MagicProbe(10 ** (-rng.uniform(10.0, 13.0) / 10), _seed32(rng))
              for _ in range(3)]
    return [VerifyAll(), probes[0], SolveAngles(), DeriveRecords(),
            probes[1], SolveAngles(), probes[2]]


def _spread(memory, shared):
    """The memory operations placed evenly among the shared ones."""
    ops = list(shared)
    for k, op in reversed(list(enumerate(memory))):
        ops.insert(k * len(shared) // len(memory), op)
    return ops


def _quiet_round(seed, index):
    rng = _rng(seed, index)
    memory = [MemoryBatches(((*QUIET, QUIET_TRIALS, _seed32(rng)),))
              for _ in range(QUIET_BATCHES)]
    return _spread(memory, _shared_ops(rng))


def _threshold_round(seed, index):
    rng = _rng(seed, index)
    memory = [_probe(THRESHOLD_TRIALS, *REFERENCE_PROBE_SEEDS, threshold=True),
              _probe(SEEDED_PROBE_TRIALS, _seed32(rng), _seed32(rng),
                     threshold=False)]
    return _spread(memory, _shared_ops(rng))


def warm_up(pkg):
    """Lazy imports and first calls that a fresh process pays once."""
    # decodes a few trials, so scipy.sparse.csgraph and networkx get loaded
    pkg["surface"].memory_experiment(5, 11.0, 1, 20, 0)
    importlib.import_module("scipy.optimize")
    pkg["gkp"].magic_probe_single(0.05, 0.3 + 0.2j)


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable  # (seed, index) -> list of operations
    #: rough seconds of one round, which sizes the traced run
    nominal_round_s: float


WORKLOADS = {w.name: w for w in (
    Workload("quiet", _quiet_round, 7.5),
    Workload("threshold", _threshold_round, 9.5),
)}
