"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion N: PASS``/``FAIL`` line.  Criterion 5
demands bit-exact re-derivation of every reference teleportation identity
including displacement records, and prints the verdict of any relation
that is not reproduced exactly.
"""

import itertools
import json
import math
import random
import time

import numpy as np
from click.testing import CliRunner

from octorail.cli import cli
from octorail.exact import ExactCoeff
from octorail.gates import (GATE_TABLES, teleported_gate_v,
                            verify_gate_tables)
from octorail.gkp import (Encoding, fidelity, fine_grid, hexagonal_encoding,
                          knill_oracle, knill_step, logical_action,
                          make_gaussian_wavepacket, p_error,
                          p_error_tail_oracle, rectangular_encoding,
                          square_encoding, transform_angles, transpose_map)
from octorail.lattice import (INTERNAL, LatticeSpec, build_lattice,
                              coords_to_index, index_to_coords, neighbors,
                              rhg_view)
from octorail.memory import memory_experiment
from octorail.networks import (build_network, cancel_layer,
                               check_layer_commutation, x_block)
from octorail.permutations import (ModePermutation, SignedPermutationMatrix,
                                   TransformRejection, basis_transform,
                                   cosets, generate_allowed, is_allowed)
from octorail.surface import (derive_quadrature_relations,
                              stabilizer_combination, verify_regrouping)

LAM = np.diag([1.0, -1.0])


def _verdict(number, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed"


def test_criterion_1_s_matrix_exact():
    # printed sign pattern of the 8x8 transfer matrix, entries +-1/(2*sqrt 2)
    signs = ((1, -1, -1, 1, -1, 1, 1, -1),
             (1, 1, -1, -1, -1, -1, 1, 1),
             (1, -1, 1, -1, -1, 1, -1, 1),
             (1, 1, 1, 1, -1, -1, -1, -1),
             (1, -1, -1, 1, 1, -1, -1, 1),
             (1, 1, -1, -1, 1, 1, -1, -1),
             (1, -1, 1, -1, 1, -1, 1, -1),
             (1, 1, 1, 1, 1, 1, 1, 1))
    start = time.monotonic()
    block = x_block(build_network(2))
    ok = all(block[i, j] == ExactCoeff.from_half_power(signs[i][j], 3)
             for i in range(8) for j in range(8))
    ok = ok and time.monotonic() - start < 1.0
    _verdict(1, ok)


def test_criterion_2_layer_commutation_and_cancellation():
    start = time.monotonic()
    ok = all(check_layer_commutation(build_network(level))["all_commute"]
             for level in range(3))
    cancel = cancel_layer(build_network(2), [0.0, 0.1, 0.2, 0.3] * 2)
    ok = ok and cancel.removed_tag == "ORL"
    ok = ok and cancel.components == ((0, 1, 2, 3), (4, 5, 6, 7))
    # each disconnected half is isomorphic to the four-mode network
    quad = build_network(1)
    first = tuple(tuple(p for p in layer if p[0] < 4)
                  for layer in cancel.reduced.layers)
    second = tuple(tuple((a - 4, b - 4) for a, b in layer if a >= 4)
                   for layer in cancel.reduced.layers)
    ok = ok and first == quad.layers and second == quad.layers
    # recombining measured outcomes undoes the removed layer exactly
    from octorail.exact import ExactMatrix
    from octorail.networks import layer_matrix

    net = build_network(2)
    removed = next(layer for layer, tag in zip(net.layers, net.level_tags)
                   if tag == "ORL")
    ok = ok and (cancel.recombination @ layer_matrix(removed, 8)
                 == ExactMatrix.identity(8))
    ok = ok and time.monotonic() - start < 1.0
    _verdict(2, ok)


def test_criterion_3_gate_tables():
    start = time.monotonic()
    rows = verify_gate_tables()
    ok = len(rows) == sum(len(v) for v in GATE_TABLES.values()) == 13
    for row in rows:
        quarter = all(abs(a / (math.pi / 4) - round(a / (math.pi / 4)))
                      < 1e-12 for a in row["angles"])
        ok = ok and row["pass"]
        if quarter:
            ok = ok and row["max_dev"] == 0.0
        else:
            ok = ok and row["max_dev"] <= 1e-10
    ok = ok and time.monotonic() - start < 5.0
    _verdict(3, ok)


def test_criterion_4_permutation_group():
    start = time.monotonic()
    allowed = generate_allowed()
    ok = len(allowed) == 1344
    ok = ok and len(cosets()) == 30
    members = set()
    for images in itertools.permutations(range(1, 9)):
        p = ModePermutation(images)
        a, b = is_allowed(p, "closure"), is_allowed(p, "sets")
        ok = ok and a == b
        if a:
            members.add(images)
    ok = ok and len(members) == 1344
    ok = ok and all(isinstance(basis_transform(p), SignedPermutationMatrix)
                    for p in allowed)
    rng = random.Random(4)
    sampled = 0
    while sampled < 1000:
        images = tuple(rng.sample(range(1, 9), 8))
        if images in members:
            continue
        sampled += 1
        ok = ok and isinstance(basis_transform(ModePermutation(images)),
                               TransformRejection)
    ok = ok and time.monotonic() - start < 30.0
    _verdict(4, ok)


def test_criterion_5_reference_identities_bit_exact():
    # requires every reference quadrature relation and displacement record
    # to be re-derived bit-exactly from the exact macronode model; any
    # relation that is not is printed with its verdict.
    start = time.monotonic()
    ok = True
    for role in ("even-data", "odd-data"):
        for check in derive_quadrature_relations(role):
            if check.status != "exact":
                print(f"  {role} {check.relation.output_label}: "
                      f"{check.status}")
                ok = False
        ok = verify_regrouping(role) and ok
    ok = ok and time.monotonic() - start < 5.0
    _verdict(5, ok)


def test_criterion_6_stabilizer_combinations():
    half = ExactCoeff.from_half_power(1, 1)  # 1/sqrt(2)
    zero = ExactCoeff(0)
    [(weights, inputs)] = stabilizer_combination("bulk-X")
    ok = [float(w) for w in weights] == [0, 0, 0, 0, -1, 0, 0, 1]
    ok = ok and all(inputs[j] == (half if j in (1, 2, 5, 6) else zero)
                    for j in range(8))
    for kind, supports in (("boundary-V", ({1, 5}, {2, 6})),
                           ("boundary-H", ({1, 6}, {2, 5}))):
        combos = stabilizer_combination(kind)
        ok = ok and len(combos) == 2
        for (_, ins), support in zip(combos, supports):
            ok = ok and all(ins[j] == (half if j in support else zero)
                            for j in range(8))
    _verdict(6, ok)


def test_criterion_7_angle_transform_identity():
    start = time.monotonic()
    rng = np.random.default_rng(7)

    def deviation(theta1, theta2, encoding):
        phi1, phi2 = transform_angles(theta1, theta2, encoding)
        u = encoding.u_g.matrix
        lhs = teleported_gate_v(phi1, phi2).matrix
        rhs = (LAM @ u @ LAM @ teleported_gate_v(theta1, theta2).matrix
               @ np.linalg.inv(u))
        return float(np.abs(lhs - rhs).max())

    ok = True
    for trial in range(500):
        encoding = [square_encoding(),
                    rectangular_encoding(float(rng.uniform(0.8, 3.0))),
                    hexagonal_encoding()][trial % 3]
        if trial % 25 == 0:
            # exercise the cos(theta') = 0 branch explicitly
            from octorail.gkp import decompose_rpr
            w2 = decompose_rpr(encoding.u_g)[2]
            theta1 = -w2 + math.pi * rng.integers(-1, 2)
        else:
            theta1 = float(rng.uniform(-math.pi, math.pi))
        theta2 = theta1 + float(rng.uniform(0.2, math.pi - 0.2))
        ok = ok and deviation(theta1, theta2, encoding) <= 1e-9
    for encoding, label in ((rectangular_encoding(1.3), "I"),
                            (hexagonal_encoding(), "H")):
        m = encoding.u_g @ transpose_map(encoding.u_g)
        action = logical_action(m, encoding)
        ok = ok and action.preserves_lattice
        ok = ok and action.clifford_label == label
    ok = ok and time.monotonic() - start < 5.0
    _verdict(7, ok)


def test_criterion_8_error_formula_vs_tail_oracle():
    start = time.monotonic()
    ok = True
    for delta_sq in np.linspace(0.02, 0.15, 40):
        ratio = p_error(float(delta_sq)) / p_error_tail_oracle(float(delta_sq))
        ok = ok and 0.5 <= ratio <= 2.0
    at_tenth = p_error(0.1) / p_error_tail_oracle(0.1)
    ok = ok and abs(at_tenth - 1.0) <= 0.25
    ok = ok and time.monotonic() - start < 1.0
    _verdict(8, ok)


def test_criterion_9_memory_threshold_band():
    start = time.monotonic()
    trials = 20_000

    # same number of rounds for both distances so only the code distance
    # varies between the compared rates
    def run(distance, db, n_trials, seed):
        return memory_experiment(distance, db, 3, n_trials, seed=seed)

    quiet3 = run(3, 13.0, trials, seed=90)
    quiet5 = run(5, 13.0, trials, seed=91)
    noisy3 = run(3, 7.0, trials, seed=92)
    noisy5 = run(5, 7.0, trials, seed=93)
    ok = quiet5.rate < quiet3.rate and quiet5.ci_high < quiet3.ci_low
    ok = ok and noisy5.rate > noisy3.rate and noisy5.ci_low > noisy3.ci_high

    def gap(db, seed):
        probe = 4000
        return (run(5, db, probe, seed=seed).rate
                - run(3, db, probe, seed=seed + 1).rate)

    lo, hi = 8.0, 12.0
    ok = ok and gap(lo, 100) > 0 and gap(hi, 200) < 0
    for step in range(8):
        mid = 0.5 * (lo + hi)
        if gap(mid, 300 + 2 * step) > 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok = ok and 8.0 <= crossing <= 12.0
    ok = ok and time.monotonic() - start < 600.0
    print(f"  estimated d3/d5 crossing: {crossing:.2f} dB")
    _verdict(9, ok)


def test_criterion_10_teleportation_matches_kraus_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(10)
    grid = fine_grid()
    delta_sq = 0.05
    ok = True
    for _ in range(20):
        wf = make_gaussian_wavepacket(grid,
                                      x0=float(rng.uniform(-1.5, 1.5)),
                                      p0=float(rng.uniform(-1.5, 1.5)),
                                      variance=float(rng.uniform(0.3, 1.5)))
        m1 = float(rng.uniform(-1.0, 1.0))
        m2 = float(rng.uniform(-1.0, 1.0))
        stepped = knill_step(wf, delta_sq, forced_outcomes=(m1, m2))
        oracle = knill_oracle(wf, delta_sq, m1, m2)
        ok = ok and fidelity(stepped.output, oracle) > 1.0 - 1e-6
    ok = ok and time.monotonic() - start < 120.0
    _verdict(10, ok)


def test_criterion_11_lattice_arithmetic():
    start = time.monotonic()
    rng = random.Random(11)
    ok = True
    for _ in range(50):
        spec = LatticeSpec(rng.randint(1, 8), rng.randint(1, 8),
                           rng.choice([0, 0, 1, 2, 3]), rng.randint(1, 512))
        n, m, k = spec.n, spec.m, spec.k
        for j in range(spec.horizon):
            ok = ok and coords_to_index(index_to_coords(j, spec), spec) == j
        for j in range(min(spec.horizon, 64)):
            base = index_to_coords(j, spec)
            # skewed-boundary identities, away from wrapping coordinates
            if j + n < spec.horizon and base[1] + 1 < m:
                ok = ok and index_to_coords(j + n, spec)[1] == base[1] + 1
            if k > 0 and j + n * m < spec.horizon and base[2] + 1 < k:
                ok = ok and (index_to_coords(j + n * m, spec)[2]
                             == base[2] + 1)
            for nb, axis, direction in neighbors(j, spec):
                if direction == 0:
                    continue
                back = [(x, a, d) for x, a, d in neighbors(nb, spec)
                        if x == j and a == axis and d == -direction]
                ok = ok and bool(back)
    # half-node degree pattern of the k=0 split: one internal link plus
    # three Bell links per interior half-node
    spec = LatticeSpec(4, 4, 0, 128)
    split = rhg_view(build_lattice(spec))
    external = {hn: 0 for hn in split.half_nodes}
    internal = {hn: 0 for hn in split.half_nodes}
    for a, b, kind in split.edges:
        for hn in (a, b):
            if kind == INTERNAL:
                internal[hn] += 1
            else:
                external[hn] += 1
    interior = [hn for hn in split.half_nodes
                if 16 + 12 <= hn.j < 128 - 16 - 12]
    ok = ok and bool(interior)
    ok = ok and all(internal[hn] == 1 and external[hn] == 3
                    for hn in interior)
    ok = ok and time.monotonic() - start < 5.0
    _verdict(11, ok)


def test_criterion_12_determinism(tmp_path):
    runner = CliRunner()
    result = runner.invoke(cli, ["verify-all"])
    ok = result.exit_code == 0
    ok = ok and json.loads(result.output)["passed"] >= 40
    dumps = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        res = runner.invoke(cli, ["surface", "memory", "--d", "3", "--db",
                                  "11", "--rounds", "3", "--trials", "500",
                                  "--seed", "12", "--csv", str(path)])
        ok = ok and res.exit_code == 0
        dumps.append(path.read_bytes())
    ok = ok and dumps[0] == dumps[1]
    for name in ("p1.csv", "p2.csv"):
        path = tmp_path / name
        res = runner.invoke(cli, ["gkp", "magic-probe", "--db", "13",
                                  "--samples", "4", "--seed", "12",
                                  "--csv", str(path)])
        ok = ok and res.exit_code == 0
        dumps.append(path.read_bytes())
    ok = ok and dumps[2] == dumps[3]
    _verdict(12, ok)
