import pytest


def _sympy_record_verdict(target, raw, rows_m):
    """Independent oracle for the record solver: is there a record r in
    Q(sqrt2)^8 with target - raw - sum_d r_d m_d lattice-trivial?

    Returns "derivable", "inconsistent" (no rational record makes the exact
    parts vanish) or "infeasible" (the exact parts vanish, but no such
    record meets the integrality conditions).  The rational conditions are
    eliminated over Q by Gauss-Jordan; the integrality conditions that
    remain on the free parameters are settled with the Smith normal form of
    their (integer-scaled) matrix.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp

    from octorail.surface import sym_label

    s2 = sympy.sqrt(2)

    def to_sympy(c):
        return sympy.Rational(c.a) + s2 * sympy.Rational(c.b)

    u = sympy.symbols("u1:9")
    v = sympy.symbols("v1:9")
    equalities, integral = [], []
    for i in range(len(raw)):
        left = sympy.expand(to_sympy(target[i]) - to_sympy(raw[i]) - sum(
            (u[d] + s2 * v[d]) * to_sympy(rows_m[d][i]) for d in range(8)))
        rational, irrational = left.coeff(s2, 0), left.coeff(s2)
        if sym_label(i) in ("x1", "p1"):  # even integer on the data mode
            equalities.append(irrational)
            integral.append(rational / 2)
        else:  # integer multiple of sqrt2 on a qunaught
            equalities.append(rational)
            integral.append(irrational)
    a, c = sympy.linear_eq_to_matrix(equalities, u + v)
    try:
        sol, params = a.gauss_jordan_solve(c)
    except ValueError:
        return "inconsistent"
    integral = [sympy.expand(e.subs(dict(zip(u + v, sol))))
                for e in integral]
    if not params:
        ok = all(e.is_integer for e in integral)
    else:
        # integral = b @ t - e must be an integer vector for some rational t
        b, e = sympy.linear_eq_to_matrix(integral, list(params))
        scale = sympy.ilcm(*[x.q for x in b], 1)
        d, left_u, _ = smith_normal_decomp(b * scale, domain=sympy.ZZ)
        rank = sum(1 for k in range(min(d.shape)) if d[k, k] != 0)
        offset = left_u * (-e)
        ok = all(offset[k].is_integer for k in range(rank, len(integral)))
    return "derivable" if ok else "infeasible"


@pytest.fixture
def record_verdict():
    """The sympy derivability oracle for ``surface._solve_displacement``."""
    return _sympy_record_verdict
