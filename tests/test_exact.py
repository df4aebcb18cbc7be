import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from octorail.exact import (ExactCoeff, ExactMatrix, ONE, ZERO, _new,
                            _sub_mul, solve_exact)

SQRT2 = math.sqrt(2)

small_fractions = st.builds(Fraction, st.integers(-50, 50),
                            st.integers(1, 10))
coeffs = st.builds(ExactCoeff, small_fractions, small_fractions)


def test_basic_arithmetic():
    a = ExactCoeff(1, Fraction(1, 2))  # 1 + sqrt2/2
    b = ExactCoeff(0, 1)               # sqrt2
    assert float(a) == pytest.approx(1 + SQRT2 / 2)
    assert a * b == ExactCoeff(1, 1)   # sqrt2 + 1
    assert (a + a) - a == a
    assert a != b


def test_division_and_inverse():
    a = ExactCoeff(3, -2)
    inv = ONE / a
    assert a * inv == ONE
    with pytest.raises(ZeroDivisionError):
        _ = ONE / ZERO


def test_is_rational():
    assert ExactCoeff(5).is_rational()
    assert not ExactCoeff(0, 1).is_rational()


@given(coeffs, coeffs)
def test_float_homomorphism(a, b):
    assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-9)
    assert float(a * b) == pytest.approx(float(a) * float(b), abs=1e-9)


@given(coeffs)
def test_additive_inverse(a):
    assert a - a == ZERO
    assert a + (-a) == ZERO


@given(coeffs)
def test_multiplicative_inverse(a):
    if a != ZERO:
        assert a * (ONE / a) == ONE


def test_half_power_roundtrip():
    e = ExactCoeff.from_half_power(-1, 3)  # -1/(2*sqrt2)
    assert float(e) == pytest.approx(-1 / (2 * SQRT2))
    assert e.as_half_power() == (-1, 3)


def test_matrix_identity_and_product():
    i3 = ExactMatrix.identity(3)
    assert i3 @ i3 == i3
    m = ExactMatrix([[ONE, ExactCoeff(0, 1)], [ZERO, ONE]])
    assert (m @ m).rows[0][1] == ExactCoeff(0, 2)


def test_solve_exact_roundtrip():
    m = ExactMatrix([[ExactCoeff(1, 1), ONE],
                     [ExactCoeff(0, 1), ExactCoeff(2)]])
    rhs = ExactMatrix([[ONE], [ExactCoeff(0, 3)]])
    x = solve_exact(m, rhs)
    assert m @ x == rhs


# ---------------------------------------------------------------------------
# normal form and field operations against a Fraction-pair reference

nonzero_ints = st.integers(-30, 30).filter(bool)


@given(small_fractions, small_fractions, nonzero_ints, coeffs)
def test_normal_form_is_canonical(a, b, k, other):
    c = ExactCoeff(a, b)
    assert c.d > 0 and math.gcd(c.p, c.q, c.d) == 1
    assert (c.a, c.b) == (a, b)
    # the same value reached by other routes has the same triple and hash
    routes = [ExactCoeff(a) + ExactCoeff(0, b), c * k / k,
              (c + other) - other, -(-c), ExactCoeff(0, 1) * ExactCoeff(b)
              + ExactCoeff(a)]
    if other:
        routes.append(c * other / other)
    if c:
        routes.append(c.inverse().inverse())
    for again in routes:
        assert (again.p, again.q, again.d) == (c.p, c.q, c.d)
        assert again == c and hash(again) == hash(c)
    for e in routes + [c * other, c - other, c * k]:
        assert e.d > 0 and math.gcd(e.p, e.q, e.d) == 1


def _ref_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    norm = x[0] * x[0] - 2 * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


@given(coeffs, coeffs)
def test_field_ops_match_fraction_pair_reference(c1, c2):
    x, y = (c1.a, c1.b), (c2.a, c2.b)
    assert ((c1 + c2).a, (c1 + c2).b) == (x[0] + y[0], x[1] + y[1])
    assert ((c1 - c2).a, (c1 - c2).b) == (x[0] - y[0], x[1] - y[1])
    assert ((c1 * c2).a, (c1 * c2).b) == _ref_mul(x, y)
    assert ((-c1).a, (-c1).b) == (-x[0], -x[1])
    if c2:
        inv = c2.inverse()
        assert (inv.a, inv.b) == _ref_inverse(y)
        quot = c1 / c2
        assert (quot.a, quot.b) == _ref_mul(x, _ref_inverse(y))
    # floats round as the Fraction components do
    assert float(c1) == float(x[0]) + float(x[1]) * SQRT2
    assert bool(c1) == (x != (0, 0))


# denominators that are not powers of two, zero among the values
odd_fractions = st.builds(Fraction, st.integers(-40, 40),
                          st.sampled_from([1, 2, 3, 4, 5, 7, 12, 21, 35]))
odd_coeffs = st.builds(ExactCoeff, odd_fractions, odd_fractions)
shared_den = st.sampled_from([1, 3, 5, 7, 8, 15])


def _pair(c):
    return (c.a, c.b)


@given(odd_coeffs, odd_coeffs, odd_coeffs)
def test_sub_mul_matches_fraction_pair_reference(a, f, b):
    for a_, f_, b_ in ((a, f, b), (a, ZERO, b), (a, f, ZERO), (ZERO, f, b)):
        prod = _ref_mul(_pair(f_), _pair(b_))
        got = _sub_mul(a_, f_, b_)
        assert _pair(got) == (a_.a - prod[0], a_.b - prod[1])
        assert got.d > 0 and math.gcd(got.p, got.q, got.d) == 1


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60),
       st.integers(-60, 60), shared_den, st.integers(-60, 60))
def test_sub_mul_with_equal_denominators(p1, q1, p2, q2, d, n):
    # a and f*b share a denominator whenever _new finds no common factor
    a, f = _new(p1, q1, d), _new(p2, q2, d)
    b = ExactCoeff(n)
    got = _sub_mul(a, f, b)
    assert _pair(got) == (Fraction(p1 - n * p2, d), Fraction(q1 - n * q2, d))
    assert got.d > 0 and math.gcd(got.p, got.q, got.d) == 1


@given(st.integers(-200, 200), st.integers(-200, 200),
       st.integers(1, 60))
def test_new_returns_the_normal_form(p, q, d):
    # whether or not the gcd is 1 or d is 1, the triple is reduced
    c = _new(p, q, d)
    assert c.d > 0 and math.gcd(c.p, c.q, c.d) == 1
    assert (c.a, c.b) == (Fraction(p, d), Fraction(q, d))
    again = ExactCoeff(Fraction(p, d), Fraction(q, d))
    assert (c.p, c.q, c.d) == (again.p, again.q, again.d)


# ---------------------------------------------------------------------------
# sympy oracle of x_block and of the shared elimination


def _to_sympy(sympy, c):
    return sympy.Rational(c.a) + sympy.sqrt(2) * sympy.Rational(c.b)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_x_block_matches_sympy_kronecker_power(level):
    """The layers act on different bits of the mode index, so the composed
    transfer matrix is the (level+1)-fold Kronecker power of one balanced
    beamsplitter [[1, -1], [1, 1]]/sqrt2."""
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum import TensorProduct
    from octorail.networks import build_network, x_block

    bs = sympy.Matrix([[1, -1], [1, 1]]) / sympy.sqrt(2)
    want = bs
    for _ in range(level):
        want = TensorProduct(bs, want)
    got = x_block(build_network(level))
    n = 2 ** (level + 1)
    assert got.shape == want.shape == (n, n)
    for i in range(n):
        for j in range(n):
            assert _to_sympy(sympy, got[i, j]) == sympy.nsimplify(want[i, j])


def _random_coeff(rng, den=4):
    return ExactCoeff(Fraction(rng.randint(-4, 4), rng.randint(1, den)),
                      Fraction(rng.randint(-4, 4), rng.randint(1, den)))


@pytest.mark.parametrize("seed", range(6))
def test_solve_exact_matches_sympy(seed):
    """Random invertible systems, solved again by sympy's own elimination
    over the algebraic field QQ<sqrt2>."""
    sympy = pytest.importorskip("sympy")
    import random
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.algebraic_field(sympy.sqrt(2))

    def domain(rows):
        return DomainMatrix.from_Matrix(sympy.Matrix(
            [[_to_sympy(sympy, e) for e in r] for r in rows])).convert_to(field)

    rng = random.Random(seed)
    n, m = rng.randint(2, 4), rng.randint(1, 3)
    while True:
        a = [[_random_coeff(rng) for _ in range(n)] for _ in range(n)]
        if domain(a).det():
            break
    b = [[_random_coeff(rng) for _ in range(m)] for _ in range(n)]
    want = domain(a).lu_solve(domain(b)).to_Matrix()
    x = solve_exact(ExactMatrix(a), ExactMatrix(b))
    for i in range(n):
        for j in range(m):
            assert sympy.expand(_to_sympy(sympy, x[i, j]) - want[i, j]) == 0


def _null_basis(reduced, pivots, n_cols):
    """Null basis read off the reduced rows of a Gauss-Jordan pass."""
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [ZERO] * n_cols
        vec[free] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free]
        basis.append(vec)
    return basis


def test_gauss_jordan_null_basis_spans_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    from octorail.exact import gauss_jordan

    s2 = ExactCoeff(0, 1)
    base = [[ONE, s2, ZERO, ExactCoeff(2), ExactCoeff(1, -1)],
            [ZERO, ExactCoeff(3), ONE, s2, ExactCoeff(Fraction(1, 2))],
            [ExactCoeff(Fraction(1, 3), 1), ZERO, s2, ONE, ZERO]]
    # rank 3 in 5 columns, with two dependent rows appended
    rows = base + [[x + s2 * y for x, y in zip(base[0], base[2])],
                   [x * ExactCoeff(1, 1) - y for x, y in zip(base[1],
                                                           base[0])]]
    reduced, pivots = gauss_jordan(rows, 5)
    assert len(pivots) == 3
    assert all(not e for row in reduced[3:] for e in row)
    ours = _null_basis(reduced, pivots, 5)
    a_sym = sympy.Matrix([[_to_sympy(sympy, e) for e in r] for r in rows])
    theirs = a_sym.nullspace()
    assert len(ours) == len(theirs) == 2
    ours_sym = sympy.Matrix([[_to_sympy(sympy, e) for e in v] for v in ours])
    for v in ours:
        assert (ExactMatrix(rows) @ ExactMatrix([[e] for e in v])
                == ExactMatrix([[ZERO]] * 5))
    # the two bases span the same space
    stacked = ours_sym.col_join(sympy.Matrix.hstack(*theirs).T)
    assert sympy.simplify(stacked).rank(simplify=True) == 2


def test_record_solver_elimination_matches_sympy_on_a_rational_system(
        record_verdict):
    sympy = pytest.importorskip("sympy")
    from octorail.surface import _solve_displacement, sym_label

    index = {sym_label(i): i for i in range(26)}

    def vec(entries):
        out = [ZERO] * 26
        for label, value in entries.items():
            out[index[label]] = ExactCoeff(*value)
        return out

    # integer rows on six qunaught symbols and both data symbols; m4 is
    # m2 + m3 and m8 vanishes, so the elimination leaves free unknowns
    rows = [vec({"x2'": (2,), "p2": (2,)}), vec({"x2'": (1,), "x3'": (-1,)}),
            vec({"x1": (1,), "p2": (1,)})]
    rows.append([a + b for a, b in zip(rows[1], rows[2])])
    rows += [vec({"x6'": (1,), "x7'": (1,), "p6": (1,)}),
             vec({"x6'": (1,), "x7'": (-1,)}), vec({"p1": (1,)}), vec({})]
    raw = vec({})
    record = (ExactCoeff(Fraction(1, 2)),
              ExactCoeff(Fraction(1, 2), Fraction(1, 2)),
              ExactCoeff(0, Fraction(1, 3)))
    combination = [sum((r * row[i] for r, row in zip(record, rows)), ZERO)
                   for i in range(26)]
    cases = (
        (combination, "derivable"),
        # half a lattice step on x6' and on x7': m6 = sqrt2/2 absorbs both,
        # but only with the lattice condition of p6 met by an integer
        (vec({"x6'": (0, Fraction(1, 2)), "x7'": (0, Fraction(1, 2))}),
         "derivable"),
        # an odd integer on the data mode: only an odd multiple of m7 helps
        (vec({"p1": (1,)}), "derivable"),
        # a rational part on x4, which no row touches
        (vec({"x4": (1,)}), "inconsistent"),
        # half a lattice step on x2': the exact parts vanish, but every
        # record that meets the integrality conditions on p2 and x3' misses
        # it on x2'
        (vec({"x2'": (0, Fraction(1, 2))}), "infeasible"),
    )
    s2 = sympy.sqrt(2)
    for target, verdict in cases:
        assert record_verdict(target, raw, rows) == verdict
        solved = _solve_displacement(target, raw, rows)
        assert (solved is not None) == (verdict == "derivable"), verdict
        if solved is None:
            continue
        for i in range(26):
            left = sympy.expand(_to_sympy(sympy, target[i]) - sum(
                _to_sympy(sympy, solved[f"m{d + 1}"])
                * _to_sympy(sympy, rows[d][i]) for d in range(8)))
            rational, irrational = left.coeff(s2, 0), left.coeff(s2)
            if sym_label(i) in ("x1", "p1"):
                assert irrational == 0 and (rational / 2).is_integer
            else:
                assert rational == 0 and irrational.is_integer
