import math
import random
from fractions import Fraction

import golden
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octorail import memory, surface
from octorail.exact import HALF_SQRT2, SQRT2, ZERO, ExactCoeff
from octorail.memory import (SQRT_PI, gkp_bin, memory_experiment,
                             wilson_interval)
from octorail.networks import build_network, x_block
from octorail.surface import (BELL_WIRING, MeasurementBasis,
                              QuadratureRelation, _DATA_RELATIONS, _rel,
                              _solve_displacement, _target_vector,
                              basis_preset, derive_quadrature_relations,
                              extract_stabilizer, macronode_model,
                              stabilizer_combination, sym_label,
                              verify_regrouping, verify_relation)

H = math.pi / 2


def test_basis_presets():
    assert basis_preset("even-data").angles == (0, 0, 0, H, 0, 0, 0, H)
    assert basis_preset("odd-data").angles == (H, 0, 0, 0, 0, 0, 0, H)
    assert basis_preset("ancilla").angles == (0, 0, 0, 0, H, 0, 0, H)
    assert basis_preset("init-zero").angles == (H,) * 8
    assert basis_preset("init-plus").angles == (0,) * 8
    with pytest.raises(ValueError):
        basis_preset("nonsense")


def test_odd_basis_is_even_basis_permuted():
    # the odd-data gate is the even-data gate preceded by the mode swap
    # (26)(37); the induced basis relabeling maps one preset to the other
    from octorail.permutations import ModePermutation, transform_basis

    p = ModePermutation.from_cycles("(26)(37)")
    new_angles, _ = transform_basis(p, basis_preset("even-data").angles)
    assert tuple(new_angles) == basis_preset("odd-data").angles


def test_x_quadrature_relations_hold_exactly():
    for role in ("even-data", "odd-data"):
        for check in derive_quadrature_relations(role):
            label = check.relation.output_label
            if label.startswith("x"):
                assert check.exact, (role, label, check.diff)


def test_p_quadrature_relations_are_not_lattice_derivable():
    """The name is historical: it dates from a model without the physical
    pi/2 rotation, in which no p-relation was derivable.  The test asserts
    that every p-relation is re-derived exactly."""
    for role in ("even-data", "odd-data"):
        for check in derive_quadrature_relations(role):
            label = check.relation.output_label
            if label.startswith("p"):
                assert check.exact, (role, label, check.status, check.diff)


#: Displacement records as printed, for the entries that surface.py
#: corrects (the even-data records are reversed, odd-data p2'/p3' take
#: m1 = -2); the printed lists are also kept in comments there.
PRINTED_RECORDS = {
    ("even-data", "x1'"): [2, 1, 1, 0, -2, 1, 1, 0],
    ("even-data", "p1'"): [2, -1, -1, 0, 2, 1, 1, 0],
    ("even-data", "p2'"): [0, 0, -1, -1, 0, 0, -1, -1],
    ("even-data", "p3'"): [0, -1, 0, -1, 0, -1, 0, -1],
    ("even-data", "p6'"): [-2, 0, 1, 1, -2, 0, -1, -1],
    ("even-data", "p7'"): [-2, 1, 0, 1, -2, -1, 0, -1],
    ("odd-data", "p2'"): [2, 0, -1, -1, 1, 1, 0, -2],
    ("odd-data", "p3'"): [2, -1, 0, -1, 1, 0, 1, -2],
}


def _relation(role, label):
    return next(r for r in _DATA_RELATIONS[role] if r.output_label == label)


def _with_record(rel, record):
    return QuadratureRelation(rel.output_label, rel.coefficients,
                              _rel(rel.output_label, {}, record).displacement)


def _data_mode_mismatch(role, rel):
    """Data-mode part of a relation that its record fails to supply.

    No Bell pair involves the data wire, so the partner quadratures carry no
    data symbols and x1/p1 reach an output only through the outcomes.  The
    splitter network is real, so an x-detector sees x1 and a p-detector p1,
    each with the data column of S.  This uses neither the Bell-pair model
    nor the record solver.  A record is consistent only if what it supplies
    differs from the relation's x1/p1 coefficients by even integers.
    """
    assert all("1" not in pair[:2] for pair in BELL_WIRING)
    s = x_block(build_network(2)).rows
    angles = basis_preset(role).angles
    supplied = {"x1": ZERO, "p1": ZERO}
    for d in range(8):
        quad = "x1" if angles[d] == 0 else "p1"
        supplied[quad] = (supplied[quad]
                          + rel.displacement[f"m{d + 1}"] * s[d][0])
    mismatch = {}
    for quad, value in supplied.items():
        left = rel.coefficients.get(quad, ZERO) - value
        if left.b != 0 or left.a.denominator != 1 or left.a % 2:
            mismatch[quad] = left
    return mismatch


def test_records_supply_the_data_mode_part_of_their_relations():
    # a necessary condition that rests only on the S matrix and the preset:
    # every record in the tables passes it, and the printed form of every
    # corrected record except even-data x1' fails it
    for role in ("even-data", "odd-data"):
        for check in derive_quadrature_relations(role):
            rel = check.relation
            assert not _data_mode_mismatch(role, rel), (role, rel.output_label)
    failing = {key for key, record in PRINTED_RECORDS.items()
               if _data_mode_mismatch(key[0], _with_record(_relation(*key),
                                                           record))}
    assert failing == set(PRINTED_RECORDS) - {("even-data", "x1'")}
    # odd-data p2' and p3' need an odd multiple of p1, but their printed
    # p-detector entries (m1, m8) = (2, -2) supply none
    printed_p2 = _with_record(_relation("odd-data", "p2'"),
                              PRINTED_RECORDS[("odd-data", "p2'")])
    assert _data_mode_mismatch("odd-data", printed_p2) == {
        "p1": ExactCoeff(-1)}


def test_printed_records_are_record_mismatches():
    # each printed record fails bit-exact verification with a diff, while the
    # solver still derives the relation, with a record equivalent to the
    # corrected one in the table
    for (role, label), record in PRINTED_RECORDS.items():
        basis = basis_preset(role)
        check = verify_relation(_with_record(_relation(role, label), record),
                                basis)
        assert check.status == "record-mismatch", (role, label)
        assert check.diff and check.diff != "0"
        derived = QuadratureRelation(label, check.relation.coefficients,
                                     check.derived_displacement)
        assert verify_relation(derived, basis).exact
    # the odd-data corrections change m1 alone
    for label in ("p2'", "p3'"):
        printed = PRINTED_RECORDS[("odd-data", label)]
        table = _relation("odd-data", label).displacement
        corrected = [2 * table[f"m{d + 1}"].b for d in range(8)]
        assert [d for d in range(8) if printed[d] != corrected[d]] == [0]


def _perturbed_targets(model):
    """Table targets moved three ways under five presets: by multiples of
    measurement rows (a record shift), by rational terms and by odd lattice
    shifts on single symbols.  Yields (target, raw, rows_m)."""
    rng = random.Random(8)
    rels = [r for table in _DATA_RELATIONS.values() for r in table]
    presets = ("even-data", "odd-data", "ancilla", "boundary-V", "double-H")
    moves = (HALF_SQRT2, SQRT2, ExactCoeff(1), ExactCoeff(Fraction(1, 2)),
             ExactCoeff(Fraction(1, 2), Fraction(1, 2)))
    for k in range(45):
        rows_m = model.measurement_rows(basis_preset(presets[k % 5]))
        rel = rng.choice(rels)
        target = _target_vector(rel)
        for _ in range(2):
            c = rng.choice(moves)
            if k % 3 == 0:
                row = rows_m[rng.randrange(8)]
                target = [t + c * y for t, y in zip(target, row)]
            else:
                i = rng.randrange(len(target))
                target[i] = target[i] + (c if k % 3 == 1 else -c)
        yield target, model.quadrature_row(rel.output_label), rows_m


def test_relation_verdicts_match_independent_oracle(record_verdict):
    model = macronode_model()
    for role in ("even-data", "odd-data"):
        rows_m = model.measurement_rows(basis_preset(role))
        for rel in _DATA_RELATIONS[role]:
            args = (_target_vector(rel),
                    model.quadrature_row(rel.output_label), rows_m)
            where = (role, rel.output_label)
            assert record_verdict(*args) == "derivable", where
            assert _solve_displacement(*args) is not None, where
    seen = {"derivable": 0, "inconsistent": 0, "infeasible": 0}
    for k, args in enumerate(_perturbed_targets(model)):
        verdict = record_verdict(*args)
        seen[verdict] += 1
        derived = _solve_displacement(*args)
        assert (derived is not None) == (verdict == "derivable"), (k, verdict)
    assert min(seen.values()) >= 8, seen


def test_oracle_and_solver_reject_an_underivable_relation(record_verdict):
    # a lone half-sqrt2 coefficient on a qunaught is an odd lattice shift
    # that no outcome record can compensate
    model = macronode_model()
    basis = basis_preset("even-data")
    zero_record = _relation("even-data", "x2'").displacement
    rel = QuadratureRelation("x2'", {"x2'": HALF_SQRT2}, zero_record)
    assert _solve_displacement(_target_vector(rel), model.quadrature_row("x2'"),
                               model.measurement_rows(basis)) is None
    check = verify_relation(rel, basis)
    assert check.status == "underivable"
    assert check.derived_displacement is None and check.diff
    assert record_verdict(_target_vector(rel), model.quadrature_row("x2'"),
                          model.measurement_rows(basis)) == "infeasible"


def _as_triples(record):
    if record is None:
        return None
    return tuple((k, c.p, c.q, c.d) for k, c in sorted(record.items()))


def _solver_records(role, rows_m, cold):
    """(p, q, d) of the solver's record for every relation of ``role`` on
    the detector rows ``rows_m``; ``cold`` drops the cached factorisation
    before each call."""
    model = macronode_model()
    out = []
    for rel in _DATA_RELATIONS[role]:
        if cold:
            surface._record_factor.cache_clear()
        out.append(_as_triples(_solve_displacement(
            _target_vector(rel), model.quadrature_row(rel.output_label),
            rows_m)))
    return out


def test_record_solver_cache_matches_fresh_elimination():
    model = macronode_model()
    rows = {role: model.measurement_rows(basis_preset(role))
            for role in ("even-data", "odd-data")}
    surface._record_factor.cache_clear()
    warm = [_solver_records(role, rows[role], cold=False)
            for role in ("even-data", "odd-data", "even-data")]
    # one factorisation per basis, every other call served from the cache
    info = surface._record_factor.cache_info()
    assert (info.misses, info.hits) == (2, 28)
    cold = [_solver_records(role, rows[role], cold=True)
            for role in ("even-data", "odd-data")]
    assert warm == cold + cold[:1]
    assert all(r is not None for table in cold for r in table)
    # a copy of the even rows with one entry changed is factored afresh,
    # while the even rows' factorisation is still cached
    changed = [list(row) for row in rows["even-data"]]
    changed[3][surface._sym_index("p1'")] += 1
    _solver_records("even-data", rows["even-data"], cold=False)
    served = _solver_records("even-data", changed, cold=False)
    fresh = _solver_records("even-data", changed, cold=True)
    assert served == fresh
    assert sum(a != b for a, b in zip(fresh, cold[0])) == 4


def test_record_solver_integer_side_cold_and_warm(record_verdict):
    model = macronode_model()
    rows_m = model.measurement_rows(basis_preset("even-data"))
    raw = model.quadrature_row("x1'")
    target = _target_vector(_relation("even-data", "x1'"))
    # half a lattice step on x6': the exact parts vanish, but the lattice
    # right-hand side is not integral
    off_lattice = list(target)
    off_lattice[surface._sym_index("x6'")] += HALF_SQRT2
    assert record_verdict(off_lattice, raw, rows_m) == "infeasible"
    # the solver's record of even-data x1' from a zero record, in units of
    # sqrt2/2: its +-2 entries sit on the p-detectors 4 and 8
    expected = {f"m{d + 1}": HALF_SQRT2 * r
                for d, r in enumerate([0, -1, -1, 2, 0, -1, -1, -2])}
    for cold in (True, False):
        for vec, want in ((off_lattice, None), (target, expected)):
            if cold:
                surface._record_factor.cache_clear()
            assert _solve_displacement(vec, raw, rows_m) == want


def test_record_solver_pins_records_of_zero_records_cold_and_warm():
    # among equally valid records, the order of the solver's equations and
    # lattice integers decides which one is returned; these two are the
    # ones that order gives (in units of sqrt2/2)
    model = macronode_model()
    pins = (("even-data", "p6'", [-1, -1, 0, 2, 1, 1, 0, 2]),
            ("odd-data", "p1'", [-2, -1, -1, 0, 0, 1, 1, -2]))
    for cold in (True, False):
        for role, label, units in pins:
            if cold:
                surface._record_factor.cache_clear()
            expected = {f"m{d + 1}": HALF_SQRT2 * u
                        for d, u in enumerate(units)}
            derived = _solve_displacement(
                _target_vector(_relation(role, label)),
                model.quadrature_row(label),
                model.measurement_rows(basis_preset(role)))
            assert derived == expected, (role, label, cold)


@st.composite
def _integer_systems(draw):
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.integers(-6, 6)
    matrix = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    if draw(st.booleans()):  # consistent by construction
        z0 = [draw(entry) for _ in range(n_cols)]
        rhs = [sum(a * z for a, z in zip(row, z0)) for row in matrix]
    else:
        rhs = [draw(entry) for _ in range(n_rows)]
    return matrix, rhs


@settings(max_examples=200, deadline=None)
@given(_integer_systems())
def test_integer_solve_matches_smith_normal_form(system):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp

    matrix, rhs = system
    d, left_u, _ = smith_normal_decomp(sympy.Matrix(matrix), domain=sympy.ZZ)
    # U A V = D, so A z = b has an integer solution iff D y = U b has one
    ub = left_u * sympy.Matrix(rhs)
    diag = [d[k, k] if k < min(d.shape) else 0 for k in range(len(rhs))]
    solvable = all(ub[k] % diag[k] == 0 if diag[k] else ub[k] == 0
                   for k in range(len(rhs)))
    z = surface._back_substitute(*surface._column_reduce(matrix), rhs)
    assert (z is not None) == solvable
    if z is not None:
        assert all(isinstance(zk, int) for zk in z)
        assert [sum(a * zk for a, zk in zip(row, z)) for row in matrix] == rhs


def test_regroupings():
    assert verify_regrouping("even-data")
    assert verify_regrouping("odd-data")


def test_stabilizer_combinations_bulk():
    [(weights, inputs)] = stabilizer_combination("bulk-X")
    assert [float(w) for w in weights] == [0, 0, 0, 0, -1, 0, 0, 1]
    vals = [float(c) for c in inputs]
    assert vals == pytest.approx(
        [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0,
         0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])


def test_stabilizer_boundary_separations():
    for kind, supports in (("boundary-V", [{1, 5}, {2, 6}]),
                           ("boundary-H", [{1, 6}, {2, 5}])):
        combos = stabilizer_combination(kind)
        assert len(combos) == 2
        for (_, inputs), support in zip(combos, supports):
            for j, c in enumerate(inputs):
                expect = 1 / math.sqrt(2) if j in support else 0.0
                assert float(c) == pytest.approx(expect)


def test_stabilizer_combination_rejects_unknown_kind():
    # the two-ancilla kinds are products of bulk-X values, not combinations
    for kind in ("double", "twist", "bulk-Z", ""):
        with pytest.raises(ValueError, match="unknown stabilizer kind"):
            stabilizer_combination(kind)


def test_record_solver_checks_its_record_with_the_relation_residual(
        monkeypatch):
    # a lattice integer off by one half gives a record whose residual is an
    # odd multiple of half a lattice step; the final check must refuse it
    model = macronode_model()
    rel = _relation("even-data", "x1'")
    args = (_target_vector(rel), model.quadrature_row("x1'"),
            model.measurement_rows(basis_preset("even-data")))
    assert _solve_displacement(*args) is not None
    solve = surface._back_substitute

    def off_by_half(a, v, rhs):
        n = solve(a, v, rhs)
        return [n[0] + Fraction(1, 2)] + n[1:]

    monkeypatch.setattr(surface, "_back_substitute", off_by_half)
    assert _solve_displacement(*args) is None


def test_relation_tables_hold_the_recorded_coefficients():
    # recorded while the tables were still written in string codes
    assert golden.difference("relations") is None


def test_extract_stabilizer_rejects_unknown_kind():
    for kind in ("bulk-Z", ""):
        with pytest.raises(ValueError, match="unknown stabilizer kind"):
            extract_stabilizer([0.0] * 8, kind)


def test_extract_stabilizer_reads_the_combination_weights():
    rng = np.random.default_rng(4)
    for kind in surface.STABILIZERS:
        outcomes = rng.normal(size=8)
        want = [float(sum(float(w) * m for w, m in zip(weights, outcomes)))
                for weights, _ in stabilizer_combination(kind)]
        assert extract_stabilizer(outcomes, kind) == want


def test_extract_stabilizer_values():
    outcomes = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    [bulk] = extract_stabilizer(outcomes, "bulk-X")
    assert bulk == pytest.approx(0.8 - 0.5)
    pair = extract_stabilizer((outcomes, outcomes), "double")
    assert pair[0] == pytest.approx((0.8 - 0.5) ** 2)


def test_macronode_model_shape():
    model = macronode_model()
    rows = model.measurement_rows(basis_preset("even-data"))
    assert len(rows) == 8
    assert all(len(r) == 26 for r in rows)


def _macronode_rows_oracle():
    """The model's rows built entry by entry in ExactCoeff: each Bell pair
    as Hadamard, beamsplitter, Hadamard on its rows, then the composed
    eightsplitter S on the local x rows and on the local p rows."""
    wires = surface.WIRES
    n = 2 * len(wires)
    rows = [[ExactCoeff(int(i == j)) for j in range(n)] for i in range(n)]

    def quads(wire):
        return wires.index(wire), len(wires) + wires.index(wire)

    def hadamard(wire):
        ix, ip = quads(wire)
        rows[ix], rows[ip] = rows[ip], [ZERO - e for e in rows[ix]]

    def beamsplitter(a, b):
        for ia, ib in zip(quads(a), quads(b)):
            ra, rb = rows[ia], rows[ib]
            rows[ia] = [(ea - eb) * HALF_SQRT2 for ea, eb in zip(ra, rb)]
            rows[ib] = [(ea + eb) * HALF_SQRT2 for ea, eb in zip(ra, rb)]

    for local, partner, h_wire, orient in BELL_WIRING:
        hadamard(h_wire)
        if orient:
            beamsplitter(partner, local)
        else:
            beamsplitter(local, partner)
        hadamard(h_wire)
    s = x_block(build_network(2)).rows
    for block in (0, len(wires)):
        old = [rows[block + j] for j in range(8)]
        for d in range(8):
            rows[block + d] = [sum((s[d][j] * old[j][i] for j in range(8)),
                                   ZERO) for i in range(n)]
    return rows


def test_macronode_model_equals_the_exact_coefficient_oracle():
    rows = surface.MacronodeModel().rows
    want = _macronode_rows_oracle()
    assert len(rows) == len(want) == 26
    for got_row, want_row in zip(rows, want):
        assert len(got_row) == 26
        for got, ref in zip(got_row, want_row):
            assert type(got) is ExactCoeff
            assert (got.p, got.q, got.d) == (ref.p, ref.q, ref.d)


# The Monte Carlo memory experiment, octorail.memory, from here on.  Its
# newer tests are in tests/test_memory.py.


@given(st.floats(-20, 20, allow_nan=False),
       st.lists(st.floats(-20, 20, allow_nan=False), max_size=6))
def test_gkp_bin_residual_range(value, more):
    bit, residual = gkp_bin(value)
    assert bit in (0, 1)
    assert -SQRT_PI / 2 <= residual < SQRT_PI / 2
    n = round((value - residual) / SQRT_PI)
    assert n % 2 == bit
    assert value == pytest.approx(n * SQRT_PI + residual)
    # bit for bit the nearest grid point, written out
    nearest = math.floor(value / SQRT_PI + 0.5)
    assert (bit, residual) == (nearest % 2 == 1, value - nearest * SQRT_PI)
    # an array is binned elementwise, exactly as by scalar calls
    values = np.array([value] + more)
    bits, residuals = gkp_bin(values)
    assert bits.shape == residuals.shape == values.shape
    for v, b, r in zip(values, bits, residuals):
        assert (b, r) == gkp_bin(float(v))


def test_gkp_bin_shift_by_sqrt_pi_flips_parity():
    for v in (0.0, 0.3, -0.7, 1.9):
        b0, _ = gkp_bin(v)
        b1, _ = gkp_bin(v + SQRT_PI)
        assert b0 != b1


def test_wilson_interval_contains_estimate():
    lo, hi = wilson_interval(8, 2000)
    assert lo < 8 / 2000 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0


@pytest.mark.parametrize("failures, trials", [(1, -4), (0, 0), (3, 2),
                                              (-1, 5), (1.5, 3), (True, 3),
                                              (1, 3.0), (0, True)])
def test_wilson_interval_rejects_impossible_counts(failures, trials):
    with pytest.raises(ValueError, match="failures|trials"):
        wilson_interval(failures, trials)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gkp_bin_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        gkp_bin(bad)
    with pytest.raises(ValueError, match="finite"):
        gkp_bin(np.array([[0.5, 1.0], [bad, -2.0]]))


def test_memory_experiment_reproducible():
    a = memory_experiment(3, 13.0, 3, 200, seed=5)
    b = memory_experiment(3, 13.0, 3, 200, seed=5)
    assert a == b
    assert a.trials == 200
    assert 0 <= a.rate <= 1
    assert a.ci_low <= a.rate <= a.ci_high


def test_memory_experiment_noise_monotonicity():
    quiet = memory_experiment(3, 16.0, 3, 400, seed=2)
    noisy = memory_experiment(3, 6.0, 3, 400, seed=2)
    assert noisy.rate > quiet.rate


def test_memory_experiment_validates_arguments():
    with pytest.raises(ValueError):
        memory_experiment(4, 10.0, 3, 10, seed=0)
    with pytest.raises(ValueError):
        memory_experiment(3, 10.0, 0, 10, seed=0)
    with pytest.raises(ValueError):
        memory_experiment(3, 10.0, 3, 0, seed=0)
    for db in (0.0, -3.0, math.nan, math.inf, -math.inf, True, "7"):
        with pytest.raises(ValueError, match="squeezing_db"):
            memory_experiment(3, db, 3, 10, seed=0)
    args = {"distance": 3, "squeezing_db": 10.0, "rounds": 3, "trials": 10,
            "seed": 0}
    for name in ("distance", "rounds", "trials", "seed"):
        for bad in (float(args[name]), args[name] + 0.5, True, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an "
                                                 "integer"):
                memory_experiment(**{**args, name: bad})
    with pytest.raises(ValueError, match="seed must be non-negative"):
        memory_experiment(**{**args, "seed": -3})
    # NumPy integers are integers
    assert memory_experiment(np.int64(3), 10.0, np.int32(3), np.int64(10),
                             np.uint8(0)) == memory_experiment(3, 10.0, 3,
                                                               10, 0)


@pytest.mark.parametrize("kind", [np.uint8, np.int16])
def test_memory_experiment_takes_fixed_width_counts(kind):
    """Fixed-width NumPy counts give the plain-int results and echo Python
    ints: the rounds x stabilizers products and the Wilson interval's
    trials^2 would overflow in uint8.  They run first on a cold cache, so
    the plain-int runs after them reuse the graphs they cached."""
    cases = [(3, 10.0, 20, 50, 0), (3, 10.0, 30, 50, 1),
             (5, 9.0, 2, 255, 2)]
    memory._decoding_graph.cache_clear()
    fixed = [memory_experiment(kind(d), db, kind(r), kind(t), kind(seed))
             for d, db, r, t, seed in cases]
    assert fixed == [memory_experiment(*case) for case in cases]
    for result in fixed:
        for name in ("distance", "rounds", "trials", "failures", "seed"):
            assert type(getattr(result, name)) is int


# Seeded failures of memory_experiment(d, dB, rounds, 240, seed), recorded
# with the exact sparse matcher on the boundary sink.
_PINNED_FAILURES = {
    (3, 7.0, 1): (137, 51),
    (3, 7.0, 3): (337, 106),
    (3, 11.0, 1): (141, 2),
    (3, 11.0, 3): (341, 6),
    (3, 13.0, 1): (143, 0),
    (3, 13.0, 3): (343, 2),
    (5, 7.0, 1): (157, 74),
    (5, 7.0, 3): (357, 112),
    (5, 11.0, 1): (161, 0),
    (5, 11.0, 3): (361, 4),
    (5, 13.0, 1): (163, 0),
    (5, 13.0, 3): (363, 0),
    (7, 7.0, 1): (177, 81),
    (7, 7.0, 3): (377, 113),
    (7, 11.0, 1): (181, 0),
    (7, 11.0, 3): (381, 5),
    (7, 13.0, 1): (183, 0),
    (7, 13.0, 3): (383, 0),
    # twelve rounds: a block's decoded trials span many slices of few
    # trials each
    (5, 11.0, 12): (1261, 15),
    (7, 11.0, 12): (1281, 6),
}


@pytest.mark.parametrize("key", sorted(_PINNED_FAILURES),
                         ids=lambda k: f"d{k[0]}-{k[1]:g}dB-r{k[2]}")
def test_memory_experiment_pinned_seeded_results(key):
    """Seeded results stay fixed, bit for bit.

    The values were recorded again when the blossom on the dense twin
    matrix, whose 1e12 boundary weights swallowed the path lengths, gave way
    to the exact matcher; on every decoded trial of these cases the new
    matching is no heavier than the old.  They still embed the
    ``_flip_weights`` fault: its two slices are named the wrong way round,
    so every matching weight is floored to 1e-6 and ties, broken by the
    matcher, are everywhere.  They must move, and be recorded again, when
    that fault is fixed.
    """
    distance, db, rounds = key
    seed, failures = _PINNED_FAILURES[key]
    result = memory_experiment(distance, db, rounds, 240, seed)
    assert result.failures == failures
    assert type(result.failures) is int
    assert result.rate == failures / 240
    assert (result.ci_low, result.ci_high) == wilson_interval(failures, 240)


def _llr_weights(residuals, sigma):
    """_flip_weights with its even and odd shifts the right way round: an
    elementwise stand-in whose weights vary from trial to trial.  ``sigma``
    is a float or one scale per column."""
    shifts = np.arange(-3, 4) * SQRT_PI
    dens = np.exp(-0.5 * ((residuals[..., None] + shifts)
                          / np.asarray(sigma)[..., None]) ** 2)
    w = np.log(dens[..., 1::2].sum(axis=-1)) - np.log(
        dens[..., ::2].sum(axis=-1))
    return np.maximum(w, 1e-6)


def test_flip_weights_equal_the_written_out_sums():
    """_flip_weights, computed in place, is bit for bit the densities
    exp(-0.5 * ((r + k sqrt(pi)) / sigma)^2) summed with NumPy over
    k = -3, -1, 1, 3 and over k = -2, 0, 2, their log ratio floored at
    1e-6, at one sigma for every column and at one sigma per column.  The
    residuals reach 2 sqrt(pi), beyond the binning range, so that a share
    of the weights lies above the floor."""
    rng = np.random.default_rng(5)
    residuals = rng.uniform(-2 * SQRT_PI, 2 * SQRT_PI, (40, 60))
    for sigma in (0.05, 0.3, 0.6, 1.5, rng.uniform(0.05, 1.5, 60)):
        dens = np.exp(-0.5 * ((residuals[..., None]
                               + np.arange(-3, 4) * SQRT_PI)
                              / np.asarray(sigma)[..., None]) ** 2)
        want = np.maximum(np.log(dens[..., ::2].sum(axis=-1))
                          - np.log(dens[..., 1::2].sum(axis=-1)), 1e-6)
        assert (want > 1e-6).mean() > 0.2
        assert np.array_equal(memory._flip_weights(residuals, sigma), want)


@pytest.mark.parametrize("flip", ["program", "llr"])
@pytest.mark.parametrize("distance", [3, 5, 7])
@pytest.mark.parametrize("db", [7.0, 10.0, 13.0])
def test_block_weight_rows_equal_per_trial_rows(monkeypatch, distance, db,
                                                flip):
    """A block's flip weights come from one call on exactly its decoded
    trials' residuals, with the scale sigma = sqrt(2 delta^2) on the
    rounds x d^2 qubit columns and sigma_m = sqrt(delta^2) on the readout
    columns; the weight rows its slices see are bit for bit each trial's
    own qubit weights and readout weights; and no slice's sources times
    nodes exceeds _SLICE_ENTRIES unless it is one trial.  The program's
    weights are all floored to 1e-6 (its even and odd shifts are swapped),
    so only the stand-in shows a row landing on the wrong trial.  A budget
    of 2^12 entries gives every case several slices."""
    rounds, trials, seed = 3, 250, 40 + distance  # one block
    delta_sq = 10 ** (-db / 10)
    sigma = math.sqrt(2 * delta_sq)  # two hops of delta^2 / 2 per round
    sigma_m = math.sqrt(delta_sq)  # one hop per readout
    n_q = rounds * distance * distance
    real_bin = memory.gkp_bin
    real_flip = memory._flip_weights if flip == "program" else _llr_weights
    real_graph = memory._slice_graph
    real_paths = memory._slice_paths
    residuals, calls, rows, slices = [], [], [], []

    def spy_bin(value):
        out = real_bin(value)
        residuals.append(out[1])
        return out

    def spy_flip(resid, scale):
        calls.append((resid.copy(), np.copy(scale)))
        return real_flip(resid, scale)

    def spy_graph(weights, dg):
        rows.extend(weights.copy())
        return real_graph(weights, dg)

    def spy_paths(graph, crossing, nodes, counts):
        slices.append((len(counts), len(nodes) * graph.shape[0]))
        return real_paths(graph, crossing, nodes, counts)

    monkeypatch.setattr(memory, "gkp_bin", spy_bin)
    monkeypatch.setattr(memory, "_flip_weights", spy_flip)
    monkeypatch.setattr(memory, "_slice_graph", spy_graph)
    monkeypatch.setattr(memory, "_slice_paths", spy_paths)
    monkeypatch.setattr(memory, "_SLICE_ENTRIES", 1 << 12)
    # only the weights are under test: skip the matching
    monkeypatch.setattr(memory, "decode_matching", lambda *args: ([], 0))
    memory_experiment(distance, db, rounds, trials, seed)
    (resid,) = residuals
    decoded = [bool(defects) for _, _, defects, _
               in _per_trial_oracle(distance, db, rounds, trials, seed)]
    (call_resid, scale), = calls
    assert np.array_equal(call_resid, resid[decoded])
    n_cols = resid.shape[1]
    assert np.array_equal(scale, [sigma] * n_q + [sigma_m] * (n_cols - n_q))
    assert len(slices) > 2 and sum(n for n, _ in slices) == len(rows)
    assert all(entries <= memory._SLICE_ENTRIES or n == 1
               for n, entries in slices)
    per_trial = iter(np.concatenate([real_flip(r[:n_q], sigma),
                                     real_flip(r[n_q:], sigma_m)])
                     for r in resid)
    # the decoded trials' rows, in trial order
    for row in rows:
        assert any(np.array_equal(row, want) for want in per_trial)


def test_memory_experiment_stream_is_continuous_across_blocks(monkeypatch):
    cases = [(3, 11.0, 3, 50, 1), (5, 9.0, 2, 50, 2), (7, 13.0, 1, 50, 3)]
    whole = [memory_experiment(*case) for case in cases]
    monkeypatch.setattr(memory, "_BLOCK_TRIALS", 7)
    assert [memory_experiment(*case) for case in cases] == whole


def _per_trial_oracle(distance, db, rounds, trials, seed):
    """Each trial of memory_experiment(distance, db, rounds, trials, seed)
    by plain loops over rounds, qubits and _rotated_layout's stabilizer
    lists, on the same standard_normal stream: one row per trial, its qubit
    shifts (round by round) first, then its readout shifts.  Yields the
    trial's qubit flips, readout flips, defect node ids (from its syndromes
    and the noiseless final readout) and true cut parity."""
    stabs, adjacency, cut_qubits = memory._rotated_layout(distance)
    n_qubits, n_stabs = distance * distance, len(stabs)
    assert sorted(adjacency) == list(range(n_qubits))
    assert all(len(members) in (2, 4) for members in stabs)
    assert sorted(cut_qubits) == [r * distance for r in range(distance)]
    delta_sq = 10 ** (-db / 10)
    sigma = math.sqrt(2 * delta_sq)  # two hops of delta^2 / 2 per round
    sigma_m = math.sqrt(delta_sq)  # one hop per readout
    root_pi = math.sqrt(math.pi)

    def odd(shift):  # the nearest multiple of sqrt(pi) is odd
        return math.floor(shift / root_pi + 0.5) % 2

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        row = rng.standard_normal(rounds * (n_qubits + n_stabs)).tolist()
        flips = [[odd(sigma * row[r * n_qubits + q]) for q in range(n_qubits)]
                 for r in range(rounds)]
        m_flips = [[odd(sigma_m * row[rounds * n_qubits + r * n_stabs + s])
                    for s in range(n_stabs)] for r in range(rounds)]
        cum = [0] * n_qubits
        syndromes = []
        for r in range(rounds):
            for q in range(n_qubits):
                cum[q] ^= flips[r][q]
            syndromes.append([sum(cum[q] for q in members) % 2 ^ m_flips[r][s]
                              for s, members in enumerate(stabs)])
        syndromes.append([sum(cum[q] for q in members) % 2
                          for members in stabs])
        defects = [layer * n_stabs + s for layer in range(rounds + 1)
                   for s in range(n_stabs)
                   if syndromes[layer][s] != (syndromes[layer - 1][s]
                                              if layer else 0)]
        yield flips, m_flips, defects, sum(cum[q] for q in cut_qubits) % 2


@pytest.mark.parametrize("rounds", [1, 3])
@pytest.mark.parametrize("distance", [3, 5, 7])
def test_memory_trials_match_the_per_trial_oracle(monkeypatch, distance,
                                                  rounds):
    """Over two blocks, the binned flips are the oracle's, trial by trial;
    decode_matching sees exactly the oracle's defect lists, for exactly
    its trials with defects and in their order; and the failures are the
    oracle's true parities of the defect-free trials plus, for each decoded
    trial, its true parity XOR the correction parity decode_matching
    returned."""
    db, trials, seed = 12.0, 300, 700 + 10 * distance + rounds
    oracle = list(_per_trial_oracle(distance, db, rounds, trials, seed))
    real_bin, real_decode = memory.gkp_bin, memory.decode_matching
    binned, decoded = [], []

    def spy_bin(value):
        out = real_bin(value)
        binned.append(out[0])
        return out

    def spy_decode(defects, dist, bd, crossing):
        matched, parity = real_decode(defects, dist, bd, crossing)
        decoded.append((list(defects), parity))
        return matched, parity

    monkeypatch.setattr(memory, "gkp_bin", spy_bin)
    monkeypatch.setattr(memory, "decode_matching", spy_decode)
    result = memory_experiment(distance, db, rounds, trials, seed)
    # one call per block, each row's qubit columns first
    assert len(binned) == 2
    n_q = rounds * distance * distance
    flips = np.concatenate([b[:, :n_q] for b in binned]).reshape(
        trials, rounds, -1)
    m_flips = np.concatenate([b[:, n_q:] for b in binned]).reshape(
        trials, rounds, -1)
    assert np.array_equal(flips, [t[0] for t in oracle])
    assert np.array_equal(m_flips, [t[1] for t in oracle])
    with_defects = [t for t in oracle if t[2]]
    assert [defects for defects, _ in decoded] == [t[2] for t in with_defects]
    want = sum(t[3] for t in oracle if not t[2]) + sum(
        t[3] ^ parity for t, (_, parity) in zip(with_defects, decoded))
    assert result.failures == want
    assert 0 < len(decoded) < trials  # both kinds of trial occur


def _scan_oracle(distance, rounds):
    """Edge lists of the space-time graph and the boundary scan as the
    per-node loops computed it (anchors x nodes with a strict '<', and a
    predecessor walk for the cut parity): the sink's distances must
    reproduce it exactly.  The scan also returns, for each node, the cut
    parities of every anchor that ties for its minimum."""
    stabs, adjacency, cut_qubits = memory._rotated_layout(distance)
    n_stabs, n_qubits = len(stabs), distance * distance
    src, dst, col = [], [], []
    boundary_edges = []
    cut_edges = {}
    for layer in range(rounds):
        for q in range(n_qubits):
            stabs_of_q = adjacency[q]
            crossing = 1 if q in cut_qubits else 0
            if len(stabs_of_q) == 2:
                a = layer * n_stabs + stabs_of_q[0]
                b = layer * n_stabs + stabs_of_q[1]
                src.append(a)
                dst.append(b)
                col.append(layer * n_qubits + q)
                if crossing:
                    cut_edges[(min(a, b), max(a, b))] = 1
            elif len(stabs_of_q) == 1:
                boundary_edges.append((layer * n_stabs + stabs_of_q[0],
                                       layer * n_qubits + q, crossing))
        for s_id in range(n_stabs):
            src.append(layer * n_stabs + s_id)
            dst.append((layer + 1) * n_stabs + s_id)
            col.append(rounds * n_qubits + layer * n_stabs + s_id)

    def walk(pred_row, source, target):
        count, node = 0, target
        while node != source:
            parent = pred_row[node]
            if parent < 0:
                return count
            count += cut_edges.get((min(parent, node), max(parent, node)), 0)
            node = parent
        return count

    def boundary(graph, weight_row):
        from scipy.sparse.csgraph import dijkstra

        n_nodes = graph.shape[0]
        boundary_dist = np.full(n_nodes, np.inf)
        boundary_path = np.zeros(n_nodes, dtype=np.int64)
        tied = [set() for _ in range(n_nodes)]
        direct = {}
        for target, c, crossing in boundary_edges:
            w = weight_row[c]
            if w < direct.get(target, (np.inf, 0))[0]:
                direct[target] = (w, crossing)
        if not direct:
            return boundary_dist, boundary_path, tied
        anchors = list(direct)
        dist_b, pred_b = dijkstra(graph, indices=anchors,
                                  return_predecessors=True)
        for v in range(n_nodes):
            for k, anchor in enumerate(anchors):
                w_anchor, crossing = direct[anchor]
                total = dist_b[k, v] + w_anchor
                parity = (crossing + walk(pred_b[k], anchor, v)) % 2
                if total < boundary_dist[v]:
                    boundary_dist[v] = total
                    boundary_path[v] = parity
                    tied[v] = set()
                if total == boundary_dist[v] < np.inf:
                    tied[v].add(parity)
        return boundary_dist, boundary_path, tied

    layout = (stabs, adjacency, cut_qubits)
    return layout, (src, dst, col, boundary_edges), boundary


def _weight_rows(distance, rounds, weights, rng, count=4):
    """Trial weight rows: random multiples of 2^-12 in [0.05, 2), or every
    weight floored to 1e-6 as _flip_weights floors them.  Every path sum of
    either kind is exact in floating point, so a distance does not depend on
    the direction it is summed in."""
    n_stabs = len(memory._rotated_layout(distance)[0])
    n_cols = rounds * (distance * distance + n_stabs)
    for _ in range(count):
        if weights == "tied":
            yield np.full(n_cols, 1e-6)
        else:
            yield rng.integers(205, 8192, n_cols) / 4096


def _sink_graph(edges, row, n_nodes, keep=None):
    """The directed graph with the sink, built afresh from edge lists:
    graph edges both ways, each anchor into the sink by its lightest
    boundary edge.  ``keep`` masks the graph edges."""
    from scipy.sparse import csr_matrix

    src, dst, col, boundary_edges = edges
    src, dst, w = np.array(src), np.array(dst), row[col]
    if keep is not None:
        src, dst, w = src[keep], dst[keep], w[keep]
    anchor_w = {}
    for anchor, c, _ in boundary_edges:
        anchor_w[anchor] = min(anchor_w.get(anchor, np.inf), row[c])
    sink = n_nodes - 1
    heads = np.concatenate([src, dst, list(anchor_w)]).astype(int)
    tails = np.concatenate([dst, src, [sink] * len(anchor_w)]).astype(int)
    data = np.concatenate([w, w, list(anchor_w.values())])
    return csr_matrix((data, (heads, tails)), shape=(n_nodes, n_nodes))


@pytest.mark.parametrize("distance", [3, 5, 7])
@pytest.mark.parametrize("weights", ["random", "tied"])
def test_boundary_pass_matches_scan_oracle(distance, weights):
    """The boundary pass is the sink column of a slice's one Dijkstra,
    here a slice of one trial: each node's distance to the sink is the scan's boundary
    distance exactly, and the sink's predecessor names the anchor whose
    static crossing bit gives the cut parity.  Dijkstra's predecessor, not a
    first-anchor scan, breaks ties, so under ties the parity must be that
    of one of the tied minimising anchors."""
    from scipy.sparse.csgraph import dijkstra

    rounds = 2
    layout, edges, oracle = _scan_oracle(distance, rounds)
    n_stabs = len(layout[0])
    dg = memory._decoding_graph(distance, rounds)
    sink = dg.n_nodes - 1
    assert sink == (rounds + 1) * n_stabs
    for row in _weight_rows(distance, rounds, weights,
                            np.random.default_rng(distance)):
        graph = memory._slice_graph(row[None], dg)
        fresh = _sink_graph(edges, row, dg.n_nodes)
        assert np.array_equal(graph.indices, fresh.indices)
        assert np.array_equal(graph.indptr, fresh.indptr)
        assert np.array_equal(graph.data, fresh.data)
        assert not graph[sink].nnz  # the sink is a sink only
        # the unreachable case: without the time edges into the last layer,
        # that layer reaches no boundary edge
        keep = np.array(edges[1]) < rounds * n_stabs
        cut_off = _sink_graph(edges, row, dg.n_nodes, keep)
        for g in (graph, cut_off):
            dist, pred = dijkstra(g, directed=True, indices=range(sink),
                                  return_predecessors=True)
            bd = dist[:, sink]
            want_dist, want_path, tied = oracle(g[:sink, :sink], row)
            assert np.array_equal(bd, want_dist[:sink])
            parity = np.array([dg.crossing[p] if p >= 0 else 0
                               for p in pred[:, sink]])
            if weights == "random":
                assert all(len(t) == 1 for t in tied[:rounds * n_stabs])
                assert np.array_equal(parity, want_path[:sink])
            for v in range(sink):
                assert (parity[v] in tied[v]) if bd[v] < np.inf else (
                    pred[v, sink] < 0)
        assert np.isinf(bd[rounds * n_stabs:]).all()
        assert np.isfinite(bd[:rounds * n_stabs]).all()


def _weight(dist, bd, matches):
    return sum(bd[a] if b is None else dist[min(a, b), max(a, b)]
               for a, b in matches)


def _exhaustive_optimum(dist, bd):
    """Least total weight over every assignment of each defect to the
    boundary or to one partner, by plain enumeration."""
    def best(rest):
        if not rest:
            return 0.0
        first, rest = rest[0], rest[1:]
        options = [bd[first] + best(rest)]
        options += [dist[first, other] + best(rest[:k] + rest[k + 1:])
                    for k, other in enumerate(rest)]
        return min(options)

    return best(tuple(range(len(bd))))


_half_units = st.integers(1, 8).map(lambda n: n / 2)


@st.composite
def _matching_instances(draw):
    """Up to ten defects with weights on a half-integer grid, so that tied
    weights and distances equal to boundary sums are common and every sum
    is exact; boundary and pair distances may be +inf."""
    k = draw(st.integers(1, 10))
    bd = np.array(draw(st.lists(_half_units | st.just(math.inf),
                                min_size=k, max_size=k)))
    dist = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            dist[a, b] = dist[b, a] = draw(_half_units | st.just(math.inf))
    return dist, bd


@settings(deadline=None)  # enumeration at ten defects is slow
@given(_matching_instances())
def test_component_dp_matches_exhaustive_enumeration(instance):
    dist, bd = instance
    want = _exhaustive_optimum(dist, bd)
    if want == math.inf:
        with pytest.raises(ValueError):
            memory._pair_defects(dist, bd)
        return
    matches = memory._pair_defects(dist, bd)
    assert sorted(v for m in matches for v in m if v is not None) == list(
        range(len(bd)))
    assert _weight(dist, bd, matches) == want


def _components(dist, bd):
    """The (bd, up) problems that _pair_defects hands to its solvers."""
    seen = []
    solve = memory._component_dp

    def spy(bd, up):
        seen.append((bd, up))
        return solve(bd, up)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memory, "_component_dp", spy)
        mp.setattr(memory, "_component_blossom", spy)
        memory._pair_defects(dist, bd)
    return seen


@settings(deadline=None)  # the first blossom imports networkx
@given(_matching_instances())
def test_cap_path_matches_dp_on_the_same_components(instance):
    dist, bd = instance
    if _exhaustive_optimum(dist, bd) == math.inf:
        return
    for comp_bd, up in _components(dist, bd):
        dp = memory._component_dp(comp_bd, up)
        blossom = memory._component_blossom(comp_bd, up)
        flat = {(i, j): w for i, partners in enumerate(up)
                for j, w in partners}

        def weigh(matches):
            return sum(comp_bd[i] if j is None else flat[i, j]
                       for i, j in matches)

        assert weigh(blossom) == weigh(dp)


def _kept_components(dist, bd):
    """Connected components of the pairs whose distance lies below the sum
    of their boundary distances, by a plain search."""
    k = len(bd)
    seen, components = set(), []
    for start in range(k):
        if start in seen:
            continue
        stack, nodes = [start], set()
        while stack:
            v = stack.pop()
            if v not in nodes:
                nodes.add(v)
                stack += [u for u in range(k) if u != v and
                          dist[min(u, v), max(u, v)] < bd[u] + bd[v]]
        seen |= nodes
        components.append(sorted(nodes))
    return components


@settings(deadline=None)
@given(_matching_instances())
def test_small_components_are_solved_as_the_dp_solves_them(instance):
    """Components of one or two defects are solved without a solver call,
    with the DP's own answer on the same (bd, up), and a lone defect that
    no boundary reaches raises as the DP raises."""
    dist, bd = instance
    small, dp_raises = [], False
    for nodes in _kept_components(dist, bd):
        if len(nodes) > 2:
            continue
        comp_bd = [bd[v] for v in nodes]
        up = ([[(1, dist[nodes[0], nodes[1]])], []] if len(nodes) == 2
              else [[]])
        try:
            small.append([(nodes[i], None if j is None else nodes[j])
                          for i, j in memory._component_dp(comp_bd, up)])
        except ValueError:
            dp_raises = True
    if dp_raises:
        with pytest.raises(ValueError, match="neither the boundary"):
            memory._pair_defects(dist, bd)
        return
    if _exhaustive_optimum(dist, bd) == math.inf:
        return  # a larger component has no finite optimum
    assert all(len(comp_bd) > 2 for comp_bd, _ in _components(dist, bd))
    matches = memory._pair_defects(dist, bd)
    for want in small:
        nodes = {want[0][0]} | {v for _, v in want if v is not None}
        assert [m for m in matches if m[0] in nodes] == want


def _set_ordered_dp(bd, up):
    """_component_dp as it ordered its defects before: each next defect is
    chosen by a set difference per candidate, and cost and pick sit in two
    memo dicts.  Kept as the oracle of its frontier order and tie-breaking."""
    partners = [set() for _ in bd]
    for i, row in enumerate(up):
        for j, _ in row:
            partners[i].add(j)
            partners[j].add(i)
    order, seen, unordered = [], set(), set(range(len(bd)))
    while unordered:
        v = min(unordered, key=lambda u: (u not in seen,
                                          len(partners[u] - seen), u))
        order.append(v)
        unordered.remove(v)
        seen |= partners[v]
        seen.add(v)
    rank = {v: r for r, v in enumerate(order)}
    kept = [[] for _ in bd]
    for i, row in enumerate(up):
        for j, w in row:
            low, high = sorted((rank[i], rank[j]))
            kept[low].append((1 << high, w))
    bd = [bd[v] for v in order]
    cost = {0: 0.0}
    pick = {}

    def best(mask):
        got = cost.get(mask)
        if got is None:
            low = mask & -mask
            rest = mask ^ low
            i = low.bit_length() - 1
            got, choice = bd[i] + best(rest), 0
            for bit, w in kept[i]:
                if rest & bit:
                    c = w + best(rest ^ bit)
                    if c < got:
                        got, choice = c, bit
            cost[mask], pick[mask] = got, choice
        return got

    mask = (1 << len(bd)) - 1
    if best(mask) == math.inf:
        raise ValueError("a defect can reach neither the boundary nor a "
                         "partner")
    matches = []
    while mask:
        low, bit = mask & -mask, pick[mask]
        i = order[low.bit_length() - 1]
        j = order[bit.bit_length() - 1] if bit else None
        matches.append((i, j) if j is None or i < j else (j, i))
        mask ^= low | bit
    return matches


def _scan_pair_defects(dist, bd):
    """_pair_defects as it treated every trial: the kept-pair scan, the
    union-find and the member dict, whatever the number of defects.  Kept
    as the oracle of the direct one- and two-defect path."""
    bd = bd.tolist()
    k = len(bd)
    kept = []
    for a, row in enumerate(dist.tolist()):
        for b in range(a + 1, k):
            if row[b] < bd[a] + bd[b]:
                kept.append((a, b, row[b]))
    root = list(range(k))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b, _ in kept:
        a, b = find(a), find(b)
        root[max(a, b)] = min(a, b)
    members = {}
    for v in range(k):
        members.setdefault(find(v), []).append(v)
    local, up = {}, {}
    for r, nodes in members.items():
        if len(nodes) > 2:
            local.update((v, i) for i, v in enumerate(nodes))
            up[r] = [[] for _ in nodes]
    for a, b, w in kept:
        if a in local:
            up[find(a)][local[a]].append((local[b], w))
    matches = []
    for r, nodes in members.items():
        if len(nodes) == 1:
            if bd[nodes[0]] == math.inf:
                raise ValueError("a defect can reach neither the boundary "
                                 "nor a partner")
            matches.append((nodes[0], None))
        elif len(nodes) == 2:
            matches.append((nodes[0], nodes[1]))
        else:
            for i, j in _set_ordered_dp([bd[v] for v in nodes], up[r]):
                matches.append((nodes[i], None if j is None else nodes[j]))
    return matches


_float_weights = st.floats(1e-3, 10, allow_nan=False)
_tied_weights = st.integers(1, 4).map(lambda n: n * 1e-6)


@st.composite
def _dp_components(draw):
    """A connected (bd, up) component of 3-16 defects, as _pair_defects
    hands it to _component_dp: a random spanning tree plus up to 2n more
    pairs, each list in partner order.  Weights are floats, or all tied
    multiples of 1e-6 as under the floored flip weights; a boundary
    distance may be +inf."""
    n = draw(st.integers(3, 16))
    weights = _tied_weights if draw(st.booleans()) else _float_weights
    pairs = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    node = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    bd = [draw(weights | st.just(math.inf)) for _ in range(n)]
    up = [[] for _ in range(n)]
    for a, b in sorted(pairs):
        up[a].append((b, draw(weights)))
    return bd, up


@settings(deadline=None)
@given(_dp_components())
def test_component_dp_matches_the_set_ordered_dp(component):
    """The frontier order kept in integer keys gives the set-ordered DP's
    match list exactly, ties included, or raises as it raises."""
    bd, up = component
    try:
        want = _set_ordered_dp(bd, up)
    except ValueError:
        with pytest.raises(ValueError, match="neither the boundary"):
            memory._component_dp(bd, up)
        return
    assert memory._component_dp(bd, up) == want


@st.composite
def _small_trials(draw):
    """(dist, bd) of a trial of one or two defects; any distance may be
    +inf, and tied multiples of 1e-6 make a pair's distance equal to its
    boundary sum."""
    k = draw(st.integers(1, 2))
    weights = draw(st.sampled_from([_float_weights, _tied_weights]))
    value = weights | st.just(math.inf)
    bd = np.array([draw(value) for _ in range(k)])
    dist = np.zeros((k, k))
    if k == 2:
        dist[0, 1] = dist[1, 0] = draw(value)
    return dist, bd


@settings(deadline=None, max_examples=300)
@given(_small_trials() | _matching_instances())
def test_small_trials_are_paired_as_the_scan_pairs_them(trial):
    """A trial of one or two defects gets the general scan's matches, or
    its ValueError when a defect reaches nothing; so does a trial of up to
    ten defects, which still takes the scan."""
    dist, bd = trial
    try:
        want = _scan_pair_defects(dist, bd)
    except ValueError:
        with pytest.raises(ValueError, match="neither the boundary"):
            memory._pair_defects(dist, bd)
        return
    assert memory._pair_defects(dist, bd) == want


def _decoded_trials(distance, db, rounds, count, seed):
    """(defects, distances, boundary distances, crossing bits) of the
    decoded trials of a memory experiment, as decode_matching gets them."""
    calls = []
    real = memory.decode_matching

    def record(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memory, "decode_matching", record)
        memory.memory_experiment(distance, db, rounds, count, seed)
    return calls


def _decode(defects, graph, crossing):
    """decode_matching on one trial's graph, a slice of one trial."""
    (dist, bd, bits), = memory._slice_paths(
        graph, crossing, np.array(defects), [len(defects)])
    return memory.decode_matching(defects, dist, bd, bits)


def _slice_runs(distance, db, rounds, trials, seed):
    """Every slice of a memory experiment: its weight rows, defects and
    per-trial paths, as the program computed them."""
    real_graph, real_paths = memory._slice_graph, memory._slice_paths
    runs = []

    def spy_graph(weights, dg):
        runs.append([weights.copy(), dg])
        return real_graph(weights, dg)

    def spy_paths(graph, crossing, nodes, counts):
        paths = real_paths(graph, crossing, nodes, counts)
        runs[-1] += [nodes.tolist(), list(counts), paths]
        return paths

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memory, "_slice_graph", spy_graph)
        mp.setattr(memory, "_slice_paths", spy_paths)
        memory.memory_experiment(distance, db, rounds, trials, seed)
    return runs


@pytest.mark.parametrize("flip", ["program", "llr"])
@pytest.mark.parametrize("distance,db", [(3, 7.0), (5, 11.0), (7, 13.0)])
@pytest.mark.parametrize("budget", ["default", "one trial"])
def test_slice_paths_equal_per_trial_dijkstra(monkeypatch, distance, db,
                                              budget, flip):
    """Each trial's distances and boundary distances, read off its slice's
    one Dijkstra on the block-diagonal graph, are those of a Dijkstra on a
    fresh graph of that trial alone; its crossing bits are those of the
    boundary edges of the anchors that this Dijkstra names as the sink's
    predecessors, so ties must be broken alike.  The program's weights are
    all floored to 1e-6, so ties are everywhere and every trial's graph is
    the same; the stand-in's weights differ from trial to trial, so they
    show a trial read off another's block.  With a budget of 0 every slice
    is one trial; with the default one, slices end inside the block."""
    from scipy.sparse.csgraph import dijkstra

    if budget == "one trial":
        monkeypatch.setattr(memory, "_SLICE_ENTRIES", 0)
    if flip == "llr":
        monkeypatch.setattr(memory, "_flip_weights", _llr_weights)
    rounds = 3
    _, edges, _ = _scan_oracle(distance, rounds)
    boundary_edges = edges[3]
    runs = _slice_runs(distance, db, rounds, 150, distance)
    sizes = [len(counts) for _, _, _, counts, _ in runs]
    if budget == "one trial":
        assert set(sizes) == {1}
    else:
        assert len(sizes) > 2 and max(sizes) > 1
    checked = 0
    for weights, dg, nodes, counts, paths in runs:
        sink = dg.n_nodes - 1
        first = 0
        for row, count, (dist, bd, crossing) in zip(weights, counts, paths):
            defects = nodes[first:first + count]
            first += count
            fresh = _sink_graph(edges, row, dg.n_nodes)
            want, pred = dijkstra(fresh, directed=True, indices=defects,
                                  return_predecessors=True)
            assert np.array_equal(dist, want[:, defects])
            assert np.array_equal(bd, want[:, sink])
            for a, bit in zip(pred[:, sink], crossing):
                lightest = [(row[c], x) for v, c, x in boundary_edges
                            if v == a]
                least = min(w for w, _ in lightest) if lightest else None
                assert bit == next((x for w, x in lightest if w == least),
                                   0)
            checked += 1
    assert checked > 50


def test_slice_dijkstra_output_stays_within_budget(monkeypatch):
    """No Dijkstra's output exceeds _SLICE_ENTRIES entries unless one trial
    alone does, and the slicing does not change the result."""
    import scipy.sparse.csgraph as csgraph

    args = (5, 11.0, 3, 120, 9)
    whole = memory_experiment(*args)
    budget, n_nodes = 300, 4 * 12 + 1
    real = csgraph.dijkstra
    outputs = []

    def spy(graph, *a, **k):
        dist, pred = real(graph, *a, **k)
        outputs.append((dist.size, pred.size, graph.shape[0] // n_nodes))
        return dist, pred

    monkeypatch.setattr(memory, "_SLICE_ENTRIES", budget)
    monkeypatch.setattr(csgraph, "dijkstra", spy)
    assert memory_experiment(*args) == whole
    assert all(size == pred <= budget or trials == 1
               for size, pred, trials in outputs)
    # both kinds occur: slices of several trials, and lone trials over it
    assert any(trials > 1 for _, _, trials in outputs)
    assert any(size > budget for size, _, _ in outputs)


def test_cap_path_decodes_as_the_dp_does(monkeypatch):
    """With the cap at 4, every larger component goes to the blossom; its
    matchings weigh what the DP's do on the same trials."""
    trials = _decoded_trials(5, 8.0, 3, 60, 4)
    want = [(d, b, _weight(d, b, memory._pair_defects(d, b)))
            for _, d, b, _ in trials]
    blossoms = []
    real = memory._component_blossom

    def blossom(bd, up):
        blossoms.append(len(bd))
        return real(bd, up)

    monkeypatch.setattr(memory, "_DP_CAP", 4)
    monkeypatch.setattr(memory, "_component_blossom", blossom)
    for d, b, weight in want:
        assert _weight(d, b, memory._pair_defects(d, b)) == pytest.approx(
            weight, rel=1e-12, abs=0)
    assert len(blossoms) > 20 and min(blossoms) == 5


@pytest.mark.parametrize("cap", [memory._DP_CAP, 0],
                         ids=["dp", "blossom"])
def test_unmatched_defect_raises(monkeypatch, cap):
    """A defect that reaches neither the boundary nor a partner leaves its
    component without a finite optimum; both solvers raise instead of
    matching it through a stand-in weight."""
    monkeypatch.setattr(memory, "_DP_CAP", cap)
    rounds, distance = 2, 3
    layout, edges, _ = _scan_oracle(distance, rounds)
    n_stabs = len(layout[0])
    dg = memory._decoding_graph(distance, rounds)
    row = next(_weight_rows(distance, rounds, "random",
                            np.random.default_rng(0), 1))
    keep = np.array(edges[1]) < rounds * n_stabs
    cut_off = _sink_graph(edges, row, dg.n_nodes, keep)
    last = rounds * n_stabs
    assert _decode([0, 1], cut_off, dg.crossing)[0]
    for defects in ([0, last], [last, last + 1], [0, 1, last + 2]):
        with pytest.raises(ValueError, match="neither the boundary"):
            _decode(defects, cut_off, dg.crossing)
    # components of one or two defects never reach a solver, so a solver
    # sees an unmatchable defect in three that no boundary reaches
    with pytest.raises(ValueError, match="neither the boundary"):
        memory._pair_defects(1 - np.eye(3), np.full(3, np.inf))


@pytest.mark.parametrize("weights", ["random", "tied"])
def test_decoder_matches_brute_force_correction(weights):
    """At d = 3 with one round, the decoder's correction weighs the least
    of every subset of graph and boundary edges that reproduces the
    syndrome, and its cut parity is that of one such lightest subset."""
    from scipy.sparse.csgraph import dijkstra

    distance, rounds = 3, 1
    layout, edges, _ = _scan_oracle(distance, rounds)
    src, dst, col, boundary_edges = edges
    dg = memory._decoding_graph(distance, rounds)
    n_nodes = dg.n_nodes - 1  # without the sink
    cut_qubits = layout[2]
    # every edge as (node set, weight column, crossing bit)
    all_edges = [((a, b), c, 0) for a, b, c in zip(src, dst, col)]
    all_edges += [((a,), c, x) for a, c, x in boundary_edges]
    assert len(all_edges) == 13 and len(cut_qubits) == 3
    incidence = np.zeros((len(all_edges), n_nodes), dtype=np.int64)
    for e, (nodes, _, _) in enumerate(all_edges):
        incidence[e, list(nodes)] = 1
    subsets = (np.arange(2 ** len(all_edges))[:, None]
               >> np.arange(len(all_edges))) & 1
    syndrome = (subsets @ incidence % 2) @ (1 << np.arange(n_nodes))
    crossing = subsets @ np.array([x for _, _, x in all_edges]) % 2
    for row in _weight_rows(distance, rounds, weights,
                            np.random.default_rng(11)):
        weight = subsets @ row[[c for _, c, _ in all_edges]]
        graph = memory._slice_graph(row[None], dg)
        dist = dijkstra(graph, directed=True)
        for pattern in range(1, 2 ** n_nodes):
            defects = [v for v in range(n_nodes) if pattern >> v & 1]
            matched, parity = _decode(defects, graph, dg.crossing)
            got = sum(dist[a, -1] if b == "boundary"
                      else dist[min(a, b), max(a, b)] for a, b in matched)
            hits = syndrome == pattern
            least = weight[hits].min()
            assert got == pytest.approx(least, rel=1e-12, abs=0)
            lightest = hits & np.isclose(weight, least, rtol=1e-12, atol=0)
            assert parity in set(crossing[lightest].tolist())


@pytest.mark.parametrize("distance", [3, 5, 7])
def test_cut_is_crossed_by_boundary_edges_only(distance):
    """decode_matching adds no cut parity for a match between two defects
    and takes a boundary path's parity from its boundary edge: every cut
    qubit belongs to one stabilizer, so no graph edge crosses the cut.  The
    boundary qubits of each anchor lie all in the cut or all out of it, so
    the crossing bit is a fixed property of the anchor, whichever of its
    boundary edges is the lightest."""
    stabs, adjacency, cut_qubits = memory._rotated_layout(distance)
    assert len(cut_qubits) == distance
    assert all(len(adjacency[q]) == 1 for q in cut_qubits)
    for rounds in (1, 3):
        dg = memory._decoding_graph(distance, rounds)
        assert dg.cut.tolist() == sorted(cut_qubits)
        in_cut = {}  # anchor node -> cut membership of its boundary qubits
        for layer in range(rounds):
            for q, stabs_of_q in adjacency.items():
                if len(stabs_of_q) == 1:
                    anchor = layer * len(stabs) + stabs_of_q[0]
                    in_cut.setdefault(anchor, set()).add(q in cut_qubits)
        assert all(len(members) == 1 for members in in_cut.values())
        want = np.zeros(dg.n_nodes, dtype=bool)
        for anchor, (member,) in in_cut.items():
            want[anchor] = member
        assert want.any() and np.array_equal(dg.crossing, want)


def test_decoding_graph_is_built_once_per_shape(monkeypatch):
    """The same (distance, rounds) returns one read-only graph, whose seven
    arrays include the member table; after the cache is cleared, repeated
    runs build the layout once, and cold-cache and warm-cache runs give
    equal results."""
    dg = memory._decoding_graph(5, 3)
    assert memory._decoding_graph(5, 3) is dg
    arrays = [v for v in vars(dg).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7
    # the member table pads weight-2 stabilizers with the zero column, 25
    stabs = memory._rotated_layout(5)[0]
    assert dg.members.tolist() == [list(q) + [25] * (4 - len(q))
                                   for q in stabs]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]
    calls = []
    real = memory._rotated_layout
    monkeypatch.setattr(memory, "_rotated_layout",
                        lambda d: calls.append(d) or real(d))
    memory._decoding_graph.cache_clear()
    args = (5, 11.0, 3, 300, 2)
    cold = memory_experiment(*args)
    assert [memory_experiment(*args) for _ in range(3)] == [cold] * 3
    assert calls == [5]
