import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from octorail.checks import require_int
from octorail.exact import ExactMatrix, solve_exact
from octorail.gates import (_EIGHTH, FOURIER, DegenerateMeasurementError,
                            GATE_TABLES, NonImplementableGateError,
                            _eighth_multiple, _float_x_block,
                            _gate_residuals, _levenberg_marquardt,
                            _scores, _wrapped, displacement_mu, induced_gate, solve_angles,
                            teleported_gate_v, verify_gate_tables)
from octorail.networks import build_network, x_rows
from octorail.phasespace import SymplecticMap, make_rotation, make_shear


def test_all_table_rows_pass():
    report = verify_gate_tables()
    assert len(report) == 13
    assert all(r["pass"] for r in report), [r for r in report if not r["pass"]]


def test_quarter_pi_rows_are_exact():
    report = verify_gate_tables()
    for row in report:
        angles_ok = all(abs(math.remainder(a, math.pi / 4)) < 1e-12
                        for a in row["angles"])
        if angles_ok:
            assert row["max_dev"] == 0.0


def test_arctan2_rows_close():
    for row in verify_gate_tables():
        assert row["max_dev"] <= 1e-10


def test_teleported_gate_matches_identity_angles():
    v = teleported_gate_v(0.0, math.pi / 2)
    assert np.allclose(v.matrix, np.eye(2), atol=1e-12)


def test_teleported_gate_fourier_angles():
    v = teleported_gate_v(-math.pi / 4, math.pi / 4)
    assert np.allclose(v.matrix, FOURIER.matrix, atol=1e-12)


def test_teleported_gate_is_symplectic():
    for t1, t2 in ((0.2, 1.1), (-0.6, 0.9), (1.0, 2.2)):
        assert teleported_gate_v(t1, t2).is_symplectic()


def test_teleported_gate_pi_shift_invariance():
    a = teleported_gate_v(0.3, 1.2).matrix
    assert np.allclose(a, teleported_gate_v(0.3 + math.pi, 1.2).matrix)
    assert np.allclose(a, teleported_gate_v(0.3, 1.2 + math.pi).matrix)


def test_degenerate_angles_rejected():
    with pytest.raises(DegenerateMeasurementError):
        teleported_gate_v(0.4, 0.4)
    with pytest.raises(DegenerateMeasurementError):
        teleported_gate_v(0.4, 0.4 + math.pi)


def test_displacement_mu_identity_angles():
    mu = displacement_mu(1.0, 2.0, 0.0, math.pi / 2)
    # mu = -i*(m1*e^{-i*theta2} + m2*e^{-i*theta1}) / sin(theta2 - theta1)
    expected = -1j * (1.0 * np.exp(-1j * math.pi / 2) + 2.0) / 1.0
    assert mu == pytest.approx(expected)


def test_induced_gate_outcome_map_shape():
    net = build_network(1)
    gate = induced_gate(net, (0.0, math.pi / 2, 0.0, math.pi / 2))
    assert gate.induced_map.matrix.shape == (4, 4)
    assert gate.displacement_rule.shape == (4, 4)


def test_induced_gate_rejects_bad_angle_count():
    with pytest.raises(ValueError):
        induced_gate(build_network(1), (0.0, 0.1))


def test_solve_angles_reaches_fourier():
    sol = solve_angles(FOURIER, 1)
    assert sol.reachable
    assert sol.residual < 1e-9
    gate = induced_gate(build_network(0), sol.angles)
    assert np.allclose(gate.induced_map.matrix, FOURIER.matrix, atol=1e-8)


def test_solve_angles_reaches_shear():
    target = make_shear(-1.0)
    sol = solve_angles(target, 1)
    assert sol.reachable
    gate = induced_gate(build_network(0), sol.angles)
    assert np.allclose(gate.induced_map.matrix, target.matrix, atol=1e-8)


def test_solve_angles_rejects_unreachable_scaling():
    # a pure squeeze by 3 is outside the single-macronode gate set
    target = SymplecticMap(1, np.diag([3.0, 1 / 3.0]))
    sol = solve_angles(target, 1, n_starts=10)
    assert not sol.reachable


def test_solve_angles_rejects_non_finite_target():
    target = SymplecticMap(1, [[1.0, 0.0], [math.nan, 1.0]])
    with pytest.raises(ValueError, match="target matrix is not finite"):
        solve_angles(target, 1)


@pytest.mark.parametrize("kwargs, message", [
    ({"arity": True}, "arity must be an integer, got True"),
    ({"arity": 1.0}, "arity must be an integer, got 1.0"),
    ({"arity": 0}, "arity must be positive, got 0"),
    ({"n_starts": 2.5}, "n_starts must be an integer, got 2.5"),
    ({"n_starts": -1}, "n_starts must be non-negative, got -1"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"seed": True}, "seed must be an integer, got True"),
])
def test_solve_angles_checks_its_counts_first(kwargs, message):
    args = {"target": FOURIER, "arity": 1, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_angles(**args)


@pytest.mark.parametrize("target,arity", [
    (FOURIER, 1), (make_shear(-1.0), 1),
    (SymplecticMap(2, np.eye(4)), 2),
    (SymplecticMap(2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0],
                       [1, 0, 0, 1]]), 2)],
    ids=["fourier", "shear", "identity2", "cz2"])
def test_solve_angles_prints_the_angles_it_scores(target, arity):
    """An angle that induced_gate would take as a multiple of pi/4 is
    returned as exactly that multiple, so the reported residual is the
    residual of the returned angles."""
    sol = solve_angles(target, arity)
    assert sol.reachable
    for a in sol.angles:
        q = a / (math.pi / 4)
        assert a == round(q) * math.pi / 4 or abs(q - round(q)) > 1e-12, a
    gate = induced_gate(build_network(arity // 2), sol.angles)
    assert np.abs(gate.induced_map.matrix - target.matrix).max() \
        == sol.residual


def _search_system(level, seed):
    net = build_network(level)
    n = net.n_modes
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi / 2, math.pi / 2, (12, n))
    target = rng.normal(size=(n, n))
    return net, _float_x_block(net), target, theta


@pytest.mark.parametrize("level", [0, 1, 2])
def test_batched_residual_matches_induced_gate(level):
    net, sx, target, theta = _search_system(level, 21 + level)
    resid, _, ok = _gate_residuals(sx, target, theta)
    assert ok.all()
    n = net.n_modes
    for x, r in zip(theta, resid):
        want = induced_gate(net, x).induced_map.matrix - target
        assert np.abs(r.reshape(n, n) - want).max() \
            <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("level", [0, 1, 2])
def test_analytic_jacobian_matches_central_differences(level):
    net, sx, target, theta = _search_system(level, 21 + level)
    _, jac, _ = _gate_residuals(sx, target, theta)
    h = 1e-6
    for d in range(net.n_modes):
        step = np.zeros(net.n_modes)
        step[d] = h
        plus, _, _ = _gate_residuals(sx, target, theta + step)
        minus, _, _ = _gate_residuals(sx, target, theta - step)
        fd = (plus - minus) / (2 * h)
        assert np.abs(jac[:, :, d] - fd).max() \
            <= 1e-6 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("arity,count", [(1, 8), (2, 4)])
def test_solve_angles_reaches_random_reachable_targets(arity, count):
    net = build_network(arity // 2)
    rng = np.random.default_rng(31 + arity)
    for _ in range(count):
        angles = rng.uniform(-math.pi / 2, math.pi / 2, net.n_modes)
        target = induced_gate(net, angles).induced_map
        sol = solve_angles(target, arity)
        assert sol.reachable and sol.residual <= 1e-9, (angles, sol)


def test_singular_start_is_left_where_it_stands():
    net = build_network(0)
    starts = [[0.4, 0.4], [0.1, 1.2]]
    resid, jac, ok = _gate_residuals(_float_x_block(net), FOURIER.matrix,
                                     np.array(starts))
    assert ok.tolist() == [False, True]
    assert np.isfinite(resid).all() and np.isfinite(jac).all()
    found = _levenberg_marquardt(_float_x_block(net), FOURIER.matrix,
                                 starts)
    assert np.isfinite(found).all()
    assert found[0].tolist() == starts[0]
    gate = induced_gate(net, found[1]).induced_map.matrix
    assert np.abs(gate - FOURIER.matrix).max() <= 1e-9


@pytest.mark.parametrize("level", [0, 1, 2])
def test_batched_scores_equal_induced_gate_scores(level):
    """solve_angles scores its candidates in one batched solve; each score
    is the float that induced_gate gives, and inf where it refuses."""
    net = build_network(level)
    n = net.n_modes
    rng = np.random.default_rng(41 + level)
    target = rng.normal(size=(n, n))
    candidates = [[_wrapped(a) for a in x]
                  for x in rng.uniform(-math.pi, math.pi, (200, n))]
    equal_pair = candidates[0][:]
    equal_pair[1] = equal_pair[0]  # theta2 = theta1: a singular system
    mixed = candidates[1][:]
    mixed[::2] = [math.pi / 4] * (n // 2)
    candidates += [equal_pair, mixed, [0.0, math.pi / 2] * (n // 2),
                   [0.0] * n]  # the last two take the exact path
    want = []
    for ang in candidates:
        try:
            gate = induced_gate(net, ang).induced_map.matrix
        except NonImplementableGateError:
            want.append(math.inf)
            continue
        want.append(float(np.abs(gate - target).max()))
    got = _scores(net, target, candidates)
    assert got == want
    assert [got[-4], got[-1]] == [math.inf, math.inf]
    assert math.isfinite(got[-2])


def test_gate_tables_structure():
    assert set(GATE_TABLES) == {"two-detector", "four-detector",
                                "eight-detector"}
    assert [len(v) for v in GATE_TABLES.values()] == [3, 5, 5]


# ---------------------------------------------------------------------------
# the full nullifier system as an independent oracle
#
# induced_gate substitutes the Bell nullifiers and solves n = 2k rows.  The
# oracle keeps all 4k unknowns [x_b, p_b, x_out, p_out]: the 2k nullifier
# rows x_b - x_out = 0 and p_b + p_out = 0, then one row per detector.  The
# transfer matrix is the Kronecker power of one balanced beamsplitter.

_LEVEL1_WIRING = ((1, 2), (3, 0))


def _nullifier_system(s, cos_sin, wiring, zero, one):
    """Rows [A | C | D] of A u = C (x_in, p_in) + D m over any field."""
    n = len(s)
    k = n // 2
    if wiring is None:
        wiring = [(2 * i, 2 * i + 1) for i in range(k)]
    inp = {a: i for i, (a, _) in enumerate(wiring)}
    bell = {b: i for i, (_, b) in enumerate(wiring)}
    rows = [[zero] * (6 * k + n) for _ in range(4 * k)]
    for i in range(k):
        rows[2 * i][i], rows[2 * i][2 * k + i] = one, -one
        rows[2 * i + 1][k + i], rows[2 * i + 1][3 * k + i] = one, one
    for d, (c, sn) in enumerate(cos_sin):
        r = rows[2 * k + d]
        for j in range(n):
            if j in bell:
                r[bell[j]], r[k + bell[j]] = s[d][j] * c, s[d][j] * sn
            else:
                r[4 * k + inp[j]] = -(s[d][j] * c)
                r[5 * k + inp[j]] = -(s[d][j] * sn)
        r[6 * k + d] = one
    return rows


@lru_cache(maxsize=None)
def _sympy_field(level):
    """QQ<sqrt2>, the level's transfer matrix over it, and cos(q*pi/4)."""
    sympy = pytest.importorskip("sympy")
    field = sympy.QQ.algebraic_field(sympy.sqrt(2))
    bs = sympy.Matrix([[1, -1], [1, 1]]) / sympy.sqrt(2)
    s = bs
    for _ in range(level):
        s = sympy.kronecker_product(bs, s)
    s = [[field.from_sympy(e) for e in row] for row in s.tolist()]
    cos = [field.from_sympy(sympy.cos(q * sympy.pi / 4)) for q in range(8)]
    return field, s, cos


def _sympy_oracle(level, eighths, wiring=None):
    """(induced, displacement) rows over QQ<sqrt2> for angles q*pi/4, each
    entry as a pair (a, b) of Fractions with value a + b*sqrt2; None when
    the system is singular."""
    from sympy.polys.matrices import DomainMatrix

    field, s, cos = _sympy_field(level)
    cos_sin = [(cos[q % 8], cos[(q - 2) % 8]) for q in eighths]
    rows = _nullifier_system(s, cos_sin, wiring, field.zero, field.one)
    k = len(s) // 2
    reduced, pivots = DomainMatrix(
        rows, (4 * k, len(rows[0])), field).rref()
    if len(pivots) < 4 * k or pivots[-1] >= 4 * k:
        return None

    def ab(e):
        c = [Fraction(int(x.numerator), int(x.denominator))
             for x in e.to_list()]
        b, a = [Fraction(0)] * (2 - len(c)) + c
        return a, b

    out = [[ab(e) for e in r[4 * k:]] for r in reduced.to_list()[2 * k:]]
    return ([r[:2 * k] for r in out], [r[2 * k:] for r in out])


def _exact_pairs(matrix):
    return [[(e.a, e.b) for e in row] for row in matrix.rows]


def _assert_matches_sympy(level, eighths, want, wiring=None):
    angles = tuple(q * math.pi / 4 for q in eighths)
    net = build_network(level)
    if want is None:
        with pytest.raises(NonImplementableGateError):
            induced_gate(net, angles, wiring)
        return
    gate = induced_gate(net, angles, wiring)
    assert _exact_pairs(gate.induced_exact) == want[0], eighths
    assert _exact_pairs(gate.displacement_exact) == want[1], eighths


def test_exact_table_rows_match_sympy_nullifier_system():
    n_exact = 0
    for table, rows in GATE_TABLES.items():
        level = {"two-detector": 0, "four-detector": 1,
                 "eight-detector": 2}[table]
        for angles, _, label in rows:
            eighths = [a / (math.pi / 4) for a in angles]
            if any(abs(q - round(q)) > 1e-12 for q in eighths):
                continue
            eighths = [round(q) for q in eighths]
            want = _sympy_oracle(level, eighths)
            assert want is not None, label
            _assert_matches_sympy(level, eighths, want)
            n_exact += 1
    assert n_exact == 8


@pytest.mark.parametrize("level", [0, 1])
def test_every_quarter_pi_vector_matches_sympy_nullifier_system(level):
    """Every angle vector of pi/4 multiples, raising ones included.  The
    oracle solves the representatives in [0, pi); shifting angle d by pi
    negates detector row d, so the oracle's answer for the shifted vector
    is the same gate with outcome column d negated."""
    n = 2 ** (level + 1)
    raised = 0
    for rep in itertools.product(range(4), repeat=n):
        want = _sympy_oracle(level, rep)
        raised += want is None
        for shift in itertools.product((0, 1), repeat=n):
            eighths = [q + 4 * t for q, t in zip(rep, shift)]
            shifted = None if want is None else (want[0], [
                [(-a, -b) if shift[d] else (a, b)
                 for d, (a, b) in enumerate(row)] for row in want[1]])
            _assert_matches_sympy(level, eighths, shifted)
    assert 0 < raised < 4 ** n


def test_rewired_quarter_pi_vectors_match_sympy_nullifier_system():
    for eighths in ((0, 2, 0, 2), (1, 3, 6, 1), (2, 0, 0, 2), (7, 1, 3, 4)):
        want = _sympy_oracle(1, eighths, _LEVEL1_WIRING)
        _assert_matches_sympy(1, eighths, want, _LEVEL1_WIRING)


def _float_oracle(level, angles, wiring=None):
    bs = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2)
    s = bs
    for _ in range(level):
        s = np.kron(bs, s)
    rows = np.array(_nullifier_system(
        s, [(math.cos(t), math.sin(t)) for t in angles], wiring, 0.0, 1.0))
    k = len(s) // 2
    sol = np.linalg.solve(rows[:, :4 * k], rows[:, 4 * k:])[2 * k:]
    return sol[:, :2 * k], sol[:, 2 * k:]


@pytest.mark.parametrize("level,wiring", [(0, None), (1, None), (2, None),
                                          (1, _LEVEL1_WIRING)],
                         ids=["level0", "level1", "level2", "level1-rewired"])
def test_float_angles_match_numpy_nullifier_system(level, wiring):
    rng = np.random.default_rng(11 + level)
    net = build_network(level)
    for _ in range(25):
        angles = rng.uniform(-math.pi, math.pi, net.n_modes)
        gate = induced_gate(net, angles, wiring)
        assert gate.induced_exact is None
        want_map, want_rule = _float_oracle(level, angles, wiring)
        for got, want in ((gate.induced_map.matrix, want_map),
                          (gate.displacement_rule, want_rule)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# level 0 against the closed forms V(theta1, theta2) and mu


def _level0_angle_pairs():
    rng = np.random.default_rng(5)
    pairs = [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(20)]
    return pairs + [row[0] for row in GATE_TABLES["two-detector"]]


def test_level0_gate_is_teleported_gate_v():
    net = build_network(0)
    for t1, t2 in _level0_angle_pairs():
        got = induced_gate(net, (t1, t2)).induced_map.matrix
        want = teleported_gate_v(t1, t2).matrix
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_level0_displacement_rule_is_sqrt2_mu():
    net = build_network(0)
    rng = np.random.default_rng(6)
    for t1, t2 in _level0_angle_pairs():
        rule = induced_gate(net, (t1, t2)).displacement_rule
        m = rng.normal(size=2)
        mu = displacement_mu(m[0], m[1], t1, t2)
        want = math.sqrt(2) * np.array([mu.real, mu.imag])
        assert np.abs(rule @ m - want).max() <= 1e-12 * max(
            1.0, np.abs(want).max())


@pytest.mark.parametrize("angles", [(0.0, 0.0), (0.3, 0.3),
                                    (0.3, 0.3 + math.pi)],
                         ids=["exact", "float-equal", "float-pi-apart"])
def test_degenerate_angles_are_not_implementable(angles):
    with pytest.raises(NonImplementableGateError):
        induced_gate(build_network(0), angles)


# ---------------------------------------------------------------------------
# the solver as written before its unknowns became the output quadratures
#
# That version built the detector system over the Bell-mode quadratures
# (x_b, p_b), by hand for pi/4 multiples and batched for other angles, and
# negated the p rows of every solution.  Negating a column of a system
# commutes exactly with LU with partial pivoting, so the current solver
# must agree with it bit for bit: same floats, same exact entries, same
# errors.


def _bell_unknowns_system(sx, wiring, cos, sin):
    n = sx.shape[0]
    s_bell = sx[:, [b for _, b in wiring]]
    s_in = sx[:, [a for a, _ in wiring]]
    c, s = cos[..., None], sin[..., None]
    m = np.concatenate([s_bell * c, s_bell * s], axis=-1)
    rhs = np.concatenate([-(s_in * c), -(s_in * s),
                          np.broadcast_to(np.eye(n), m.shape)], axis=-1)
    return m, rhs


def _bell_unknowns_induced_gate(network, angles):
    n = network.n_modes
    k = n // 2
    wiring = tuple((2 * i, 2 * i + 1) for i in range(k))
    eighths = [_eighth_multiple(t) for t in angles]
    if None in eighths:
        m, rhs = _bell_unknowns_system(
            _float_x_block(network), wiring,
            np.array([[math.cos(t) for t in angles]]),
            np.array([[math.sin(t) for t in angles]]))
        if abs(np.linalg.det(m[0])) < 1e-12:
            raise NonImplementableGateError("singular constraint system")
        out = np.linalg.solve(m[0], rhs[0])
        out[k:] *= -1.0
        return out[:, :n], out[:, n:], None, None
    sx = x_rows(network)
    bell = [b for _, b in wiring]
    inputs = [a for a, _ in wiring]
    m_rows, rhs_rows = [], []
    for d, e in enumerate(eighths):
        row, c, s = sx[d], _EIGHTH[e % 8], _EIGHTH[(e + 6) % 8]
        m_rows.append([row[j] * c for j in bell] + [row[j] * s for j in bell])
        rhs_rows.append([-(row[j] * c) for j in inputs]
                        + [-(row[j] * s) for j in inputs]
                        + [int(i == d) for i in range(n)])
    try:
        sol = solve_exact(ExactMatrix(m_rows), ExactMatrix(rhs_rows)).rows
    except ValueError as exc:
        raise NonImplementableGateError(str(exc)) from exc
    out = sol[:k] + [[-e for e in r] for r in sol[k:]]
    a_exact = ExactMatrix([r[:n] for r in out])
    b_exact = ExactMatrix([r[n:] for r in out])
    return a_exact.to_float(), b_exact.to_float(), a_exact, b_exact


def _bell_unknowns_residuals(sx, target, theta):
    n = sx.shape[0]
    wiring = tuple((2 * i, 2 * i + 1) for i in range(n // 2))
    m, rhs = _bell_unknowns_system(sx, wiring, np.cos(theta), np.sin(theta))
    ok = np.abs(np.linalg.det(m)) >= 1e-12
    m[~ok] = np.eye(n)
    sol = np.linalg.solve(m, rhs)
    x, m_inv = sol[..., :n], sol[..., n:]
    dm, drhs = _bell_unknowns_system(sx, wiring, -np.sin(theta),
                                     np.cos(theta))
    v = drhs[..., :n] - dm @ x
    sign = np.repeat([1.0, -1.0], n // 2)[:, None]
    resid = sign * x - target
    jac = sign[:, :, None] * np.einsum("bid,bdj->bijd", m_inv, v)
    return (resid.reshape(len(theta), n * n),
            jac.reshape(len(theta), n * n, n), ok)


def _oracle_vectors(level, kind, count=300):
    n = 2 ** (level + 1)
    rng = np.random.default_rng(100 * level + (kind == "eighth"))
    if kind == "float":
        return rng.uniform(-math.pi, math.pi, (count, n))
    return rng.integers(-4, 5, (count, n)) * (math.pi / 4)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", ["float", "eighth"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_induced_gate_equals_the_bell_unknowns_solver_bit_for_bit(level,
                                                                 kind):
    net = build_network(level)
    raised = 0
    for angles in _oracle_vectors(level, kind).tolist():
        want = _outcome(_bell_unknowns_induced_gate, net, angles)
        got = _outcome(induced_gate, net, angles)
        if isinstance(want, tuple) and len(want) == 2:
            assert got == want, angles
            raised += 1
            continue
        assert got.induced_map.matrix.tobytes() == want[0].tobytes()
        assert got.displacement_rule.tobytes() == want[1].tobytes()
        assert got.induced_exact == want[2]
        assert got.displacement_exact == want[3]
        if kind == "eighth":
            assert repr(got.induced_exact) == repr(want[2])
            assert repr(got.displacement_exact) == repr(want[3])
    # the pi/4 sets reach the singular systems as well
    assert (raised > 0) == (kind == "eighth")


@pytest.mark.parametrize("kind", ["float", "eighth"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_gate_residuals_equal_the_sign_vector_form(level, kind):
    net = build_network(level)
    sx = _float_x_block(net)
    theta = _oracle_vectors(level, kind)
    target = np.random.default_rng(7 + level).normal(size=sx.shape)
    resid, jac, ok = _gate_residuals(sx, target, theta)
    want_resid, want_jac, want_ok = _bell_unknowns_residuals(sx, target,
                                                             theta)
    assert np.array_equal(ok, want_ok)
    assert (kind == "eighth") == (not ok.all())
    # a singular system carries placeholder values, finite in both forms;
    # a zero in the Jacobian may differ in sign from the negated one
    assert resid[ok].tobytes() == want_resid[ok].tobytes()
    assert np.array_equal(jac[ok], want_jac[ok])
    assert np.isfinite(resid).all() and np.isfinite(jac).all()


# ---------------------------------------------------------------------------
# non-finite parameters

_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
def test_teleported_gate_v_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="^theta1 must be finite, got "):
        teleported_gate_v(bad, 1.0)
    with pytest.raises(ValueError, match="^theta2 must be finite, got "):
        teleported_gate_v(1.0, bad)


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
def test_displacement_mu_rejects_non_finite_parameters(bad):
    for name, args in (("m1", (bad, 1.0, 0.0, 1.0)),
                       ("m2", (1.0, bad, 0.0, 1.0)),
                       ("theta1", (1.0, 1.0, bad, 1.0)),
                       ("theta2", (1.0, 1.0, 0.0, bad))):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            displacement_mu(*args)


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
def test_induced_gate_names_the_non_finite_angle(bad):
    with pytest.raises(ValueError,
                       match=rf"^angles\[0\] must be finite, got {bad}$"):
        induced_gate(build_network(0), [bad, 1.0])
    with pytest.raises(ValueError, match=r"^angles\[2\] must be finite, got "):
        induced_gate(build_network(1), [0.0, 1.0, bad, math.pi / 4])


@pytest.mark.parametrize("angles", [(1e16, 1e16 + 6.0),
                                    (1e17, 1e17 + 96.0)])
def test_huge_angles_are_reduced_before_the_eighth_test(angles):
    """Beyond about 1e15 every float is a whole number of pi/4 by its
    quotient; reduced mod 2pi, these angles are not, so induced_gate takes
    the float path and gives teleported_gate_v's gate."""
    assert [_eighth_multiple(t) for t in angles] == [None, None]
    got = induced_gate(build_network(0), angles).induced_map.matrix
    want = teleported_gate_v(*angles).matrix
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # a multiple of pi/4 stays one after the reduction, with its class mod 8
    for k in range(-12, 13):
        assert _eighth_multiple(k * math.pi / 4) % 8 == k % 8


def test_require_int_checks_once_for_every_caller():
    assert require_int("n", np.uint8(200), 1) == 200
    assert type(require_int("n", np.int16(3), 0)) is int
    assert require_int("seed", 0, 0) == 0
    for bad in (True, 2.0, "3", None):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            require_int("n", bad, 0)
    with pytest.raises(ValueError, match="^n must be positive, got 0$"):
        require_int("n", 0, 1)
    with pytest.raises(ValueError,
                       match="^seed must be non-negative, got -2$"):
        require_int("seed", np.int64(-2), 0)


def test_degenerate_angles_still_raise_their_own_error():
    with pytest.raises(DegenerateMeasurementError):
        displacement_mu(1.0, 2.0, 0.4, 0.4 + math.pi)
