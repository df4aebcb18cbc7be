import dataclasses
import math
import random
import re
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
                              _solve_displacement, _symbol_vector,
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
        target = _symbol_vector(rel.coefficients)
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
            args = (_symbol_vector(rel.coefficients),
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
    args = (_symbol_vector(rel.coefficients), model.quadrature_row("x2'"),
            model.measurement_rows(basis))
    assert _solve_displacement(*args) is None
    check = verify_relation(rel, basis)
    assert check.status == "underivable"
    assert check.derived_displacement is None and check.diff
    assert record_verdict(*args) == "infeasible"


def test_relation_takes_documented_coefficients_as_int_or_fraction():
    # an ExactCoeff equals the int or Fraction of its value but hashes
    # apart from it; the documented set is compared by value
    zero_record = _relation("even-data", "x1'").displacement
    for coeff in (-1, Fraction(1), 0, ExactCoeff(-1)):
        rel = QuadratureRelation("x1'", {"x1": coeff}, zero_record)
        assert rel.coefficients["x1"] == coeff
    for coeff in (3, Fraction(1, 3), -1.0, "x"):
        with pytest.raises(ValueError,
                           match="coefficient outside the documented set"):
            QuadratureRelation("x1'", {"x1": coeff}, zero_record)


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
            _symbol_vector(rel.coefficients),
            model.quadrature_row(rel.output_label), rows_m)))
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
    target = _symbol_vector(_relation("even-data", "x1'").coefficients)
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
                _symbol_vector(_relation(role, label).coefficients),
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
        with pytest.raises(ValueError, match=re.escape(
                "kind must be one of 'bulk-X', 'boundary-V', 'boundary-H', "
                f"got {kind!r}") + "$"):
            stabilizer_combination(kind)


def test_record_solver_checks_its_record_with_the_relation_residual(
        monkeypatch):
    # a lattice integer off by one half gives a record whose residual is an
    # odd multiple of half a lattice step; the final check must refuse it
    model = macronode_model()
    rel = _relation("even-data", "x1'")
    args = (_symbol_vector(rel.coefficients), model.quadrature_row("x1'"),
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
        with pytest.raises(ValueError, match=re.escape(
                "kind must be one of 'bulk-X', 'boundary-V', 'boundary-H', "
                f"'double', 'twist', got {kind!r}") + "$"):
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


# --------------------------------------------------------------------------
# The Monte Carlo memory experiment, octorail.memory, as a caller sees it:
# binning, the Wilson interval and memory_experiment's results.  These
# tests watch no stage; the tests of its stages are in tests/test_memory.py.
# --------------------------------------------------------------------------

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gkp_bin_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        gkp_bin(bad)
    with pytest.raises(ValueError, match="finite"):
        gkp_bin(np.array([[0.5, 1.0], [bad, -2.0]]))


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


@pytest.mark.parametrize("config", golden.PINNED_MEMORY,
                         ids=lambda c: f"d{c[0]}-{c[1]:g}dB-r{c[2]}")
def test_memory_experiment_pinned_seeded_results(config):
    """Seeded results stay fixed, bit for bit: each run gives its recorded
    line of ``memory_identity``, whose producer's docstring tells their
    history."""
    result = memory_experiment(*config)
    assert type(result.failures) is int
    assert dataclasses.astuple(result) == golden.memory_result(config)


def test_memory_experiment_stream_is_continuous_across_blocks(monkeypatch):
    cases = [(3, 11.0, 3, 50, 1), (5, 9.0, 2, 50, 2), (7, 13.0, 1, 50, 3)]
    whole = [memory_experiment(*case) for case in cases]
    monkeypatch.setattr(memory, "_BLOCK_TRIALS", 7)
    assert [memory_experiment(*case) for case in cases] == whole
