"""Teleported-gate extraction from macronode splitter networks.

The gate induced by a choice of homodyne angles is computed in the ideal
(infinitely squeezed ancilla) limit.  Each logical wire enters the network
on an input mode; its Bell ancilla enters on a Bell mode, whose partner is
the output.  Substituting the Bell nullifiers x_b = x_out and p_b = -p_out
leaves one square system of n = 2k rows, one per detector: detector d
measures sum_j S[d][j] (cos t_d x_j + sin t_d p_j) = m_d.  Its unknowns are
the output quadratures (x_out, p_out); the input quadratures and the
outcomes m form the right-hand side.  The solution is the output as a
linear map of the inputs (the induced symplectic gate) plus a linear map
of the outcomes (the displacement rule).  Angles that are multiples of
pi/4 are solved exactly over Q(sqrt2), others in floating point; both
build the system with the same function, and one function solves every
floating-point batch of systems.  The angle search solves the
floating-point system for a whole batch of angle vectors at once, with its
derivative in closed form, and scores all its results in one more batch:
a result with an angle off the multiples of pi/4 gets the float that
induced_gate would give, and only the others go through the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .checks import require_choice, require_int, require_real
from .exact import ExactMatrix, HALF_SQRT2, ONE, ZERO, solve_exact
from .networks import SplitterNetwork, build_network, x_rows
from .phasespace import SymplecticMap, make_rotation, make_shear

# Fourier gate: x -> -p, p -> x.  Acts as the logical Hadamard.
FOURIER = SymplecticMap(1, np.array([[0.0, -1.0], [1.0, 0.0]]))


class NonImplementableGateError(ValueError):
    """The angle choice does not implement a deterministic Gaussian map."""


class DegenerateMeasurementError(ValueError):
    """theta2 == theta1 (mod pi): the two homodynes are not independent."""


def _homodyne_delta(theta1, theta2, **outcomes) -> float:
    """theta2 - theta1 for a pair of homodynes, after checking that every
    argument is finite and that the two homodynes are independent."""
    for name, value in dict(theta1=theta1, theta2=theta2, **outcomes).items():
        require_real(name, value)
    delta = theta2 - theta1
    if abs(math.sin(delta)) < 1e-12:
        raise DegenerateMeasurementError("theta2 - theta1 is a multiple of pi")
    return delta


def teleported_gate_v(theta1: float, theta2: float) -> SymplecticMap:
    """Single-mode gate enacted by one teleportation step at homodyne
    angles (theta1, theta2): a shear of 2/tan(theta2-theta1) sandwiched
    between two equal rotations."""
    delta = _homodyne_delta(theta1, theta2)
    r = make_rotation(theta1)
    return r @ make_shear(2.0 / math.tan(delta)) @ r


def displacement_mu(m1: float, m2: float, theta1: float, theta2: float) -> complex:
    """Outcome-dependent displacement accompanying teleported_gate_v."""
    delta = _homodyne_delta(theta1, theta2, m1=m1, m2=m2)
    return -1j * (m1 * np.exp(-1j * theta2) + m2 * np.exp(-1j * theta1)) \
        / math.sin(delta)


@dataclass(frozen=True)
class TeleportedGate:
    induced_map: SymplecticMap
    displacement_rule: np.ndarray  # (2K, N): outcome -> output quadrature shift
    io_spec: tuple  # ((input_mode, bell_mode), ...) 0-based
    induced_exact: ExactMatrix | None = None
    displacement_exact: ExactMatrix | None = None


# cos(k*pi/4) in Q(sqrt2), k mod 8; sin(k*pi/4) = cos((k-2)*pi/4)
_EIGHTH = {
    0: ONE, 1: HALF_SQRT2, 2: ZERO, 3: -HALF_SQRT2,
    4: -ONE, 5: -HALF_SQRT2, 6: ZERO, 7: HALF_SQRT2,
}


def _eighth_multiple(theta: float):
    """Return integer k in [-4, 4] with theta = k*pi/4 (mod 2pi) to within
    1e-12*pi/4, or None.  theta is reduced by atan2 of its sine and cosine,
    as exactly as the float path's own ``math.cos`` and ``math.sin``: above
    about 1e15, every float's quotient theta/(pi/4) is a whole number."""
    k = math.atan2(math.sin(theta), math.cos(theta)) / (math.pi / 4)
    kr = round(k)
    if abs(k - kr) < 1e-12:
        return kr
    return None


@lru_cache(maxsize=8)
def _float_x_block(network: SplitterNetwork) -> np.ndarray:
    """The network's exact x-block as a read-only float matrix, converted
    once per network for the float path of :func:`induced_gate`."""
    sxf = np.array([[float(e) for e in row] for row in x_rows(network)])
    sxf.flags.writeable = False
    return sxf


def _default_wiring(n: int) -> tuple:
    """Logical wire k on mode 2k, its Bell ancilla on mode 2k+1."""
    return tuple((2 * i, 2 * i + 1) for i in range(n // 2))


def _detector_system(sx, wiring, cos, sin):
    """The detector system M X = R at a batch of angle vectors.

    ``cos`` and ``sin`` hold cos t_d and sin t_d, shape (batch, n), of the
    dtype of the x-block ``sx`` (float, or object for ExactCoeff).  Row d
    of M is [S_bell[d] cos t_d | -S_bell[d] sin t_d] over the output
    quadratures (x_out, p_out), the nullifier p_b = -p_out giving the
    sign; row d of R is [-S_in[d] cos t_d | -S_in[d] sin t_d | e_d] over
    the input quadratures and the outcomes.  The solution X is the output
    itself.  Returns M, shape (batch, n, n), and R, shape (batch, n, 2n).
    """
    n = sx.shape[0]
    s_bell = sx[:, [b for _, b in wiring]]
    s_in = sx[:, [a for a, _ in wiring]]
    c, s = cos[..., None], sin[..., None]
    m = np.concatenate([s_bell * c, -(s_bell * s)], axis=-1)
    eye = np.broadcast_to(np.eye(n, dtype=sx.dtype), m.shape)
    rhs = np.concatenate([-(s_in * c), -(s_in * s), eye], axis=-1)
    return m, rhs


def _solve_float(m, rhs):
    """Solve a batch of float detector systems M X = R in one call.

    A system with |det M| < 1e-12 is singular, and :func:`induced_gate`
    refuses it; the identity takes the place of its M (in place), so its X
    is a finite placeholder.  Returns X, shape (batch, n, 2n), and the mask
    of the regular systems.
    """
    regular = np.abs(np.linalg.det(m)) >= 1e-12
    m[~regular] = np.eye(m.shape[-1])
    return np.linalg.solve(m, rhs), regular


def induced_gate(network: SplitterNetwork, angles, wiring=None) -> TeleportedGate:
    """Gate induced on the teleported modes by measuring the network outputs
    at the given homodyne angles, with ideal Bell-pair ancillas.

    ``wiring`` lists (input_mode, bell_mode) pairs (0-based); by default
    logical wire k enters on mode 2k and its Bell ancilla on mode 2k+1,
    the output being the ancilla's partner.
    """
    angles = list(getattr(angles, "angles", angles))
    n = network.n_modes
    if len(angles) != n:
        raise ValueError("angle count must equal detector count")
    for d, t in enumerate(angles):
        require_real(f"angles[{d}]", t)
    if wiring is None:
        wiring = _default_wiring(n)
    wiring = tuple((int(a), int(b)) for a, b in wiring)
    if sorted([m for w in wiring for m in w]) != list(range(n)):
        raise ValueError("wiring must partition the network modes")
    k = n // 2
    eighths = [_eighth_multiple(t) for t in angles]
    if None in eighths:  # angles such as arctan 2
        sx = _float_x_block(network)
        cos = [math.cos(t) for t in angles]
        sin = [math.sin(t) for t in angles]
    else:
        sx = np.array(x_rows(network), dtype=object)
        cos = [_EIGHTH[e % 8] for e in eighths]
        sin = [_EIGHTH[(e + 6) % 8] for e in eighths]
    m, rhs = _detector_system(sx, wiring, np.array([cos], sx.dtype),
                              np.array([sin], sx.dtype))
    if sx.dtype != object:
        out, regular = _solve_float(m, rhs)
        if not regular[0]:
            raise NonImplementableGateError("singular constraint system")
        return TeleportedGate(SymplecticMap(k, out[0, :, :n]), out[0, :, n:],
                              wiring)
    try:
        out = solve_exact(ExactMatrix(m[0].tolist()),
                          ExactMatrix(rhs[0].tolist())).rows
    except ValueError as exc:
        raise NonImplementableGateError(str(exc)) from exc
    a_exact = ExactMatrix([r[:n] for r in out])
    b_exact = ExactMatrix([r[n:] for r in out])
    return TeleportedGate(SymplecticMap(k, a_exact.to_float()),
                          b_exact.to_float(), wiring, a_exact, b_exact)


# ---------------------------------------------------------------------------
# printed gate tables

def _f_matrix(k_modes, wires):
    m = np.eye(2 * k_modes)
    for w in wires:
        m[w, w] = m[k_modes + w, k_modes + w] = 0.0
        m[w, k_modes + w] = -1.0
        m[k_modes + w, w] = 1.0
    return m


def _shear_matrix(k_modes, sigma):
    m = np.eye(2 * k_modes)
    for w in range(k_modes):
        m[k_modes + w, w] = sigma
    return m


def _swap_matrix(k_modes, pairs):
    perm = list(range(k_modes))
    for a, b in pairs:
        perm[a], perm[b] = perm[b], perm[a]
    m = np.zeros((2 * k_modes, 2 * k_modes))
    for i, j in enumerate(perm):
        m[i, j] = 1.0
        m[k_modes + i, k_modes + j] = 1.0
    return m


def _cz_matrix(k_modes, pairs, g=1.0):
    m = np.eye(2 * k_modes)
    for a, b in pairs:
        m[k_modes + a, b] = g
        m[k_modes + b, a] = g
    return m


_AT2 = math.atan(2.0)

GATE_TABLES = {
    # level-0 network, single-mode gates
    "two-detector": [
        ((0.0, math.pi / 2), np.eye(2), "identity"),
        ((-math.pi / 4, math.pi / 4), _f_matrix(1, [0]), "Fourier (logical H)"),
        ((0.0, -_AT2), _shear_matrix(1, -1.0), "P(-1) (logical phase)"),
    ],
    # level-1 network, two-mode gates
    "four-detector": [
        ((0.0, math.pi / 2, 0.0, math.pi / 2), np.eye(4), "identity x identity"),
        ((-math.pi / 4, math.pi / 4, -math.pi / 4, math.pi / 4),
         _f_matrix(2, [0, 1]), "F x F"),
        ((0.0, -_AT2, 0.0, -_AT2), _shear_matrix(2, -1.0), "P(-1) x P(-1)"),
        ((math.pi / 2, 0.0, 0.0, math.pi / 2), _swap_matrix(2, [(0, 1)]), "SWAP"),
        ((0.0, -_AT2, 0.0, _AT2), _cz_matrix(2, [(0, 1)]), "CZ(1)"),
    ],
    # level-2 network, four-mode gates
    "eight-detector": [
        (tuple([0.0, math.pi / 2] * 4), np.eye(8), "identity^4"),
        (tuple([-math.pi / 4, math.pi / 4] * 4), _f_matrix(4, range(4)), "F^4"),
        (tuple([0.0, -_AT2] * 4), _shear_matrix(4, -1.0), "P(-1)^4"),
        ((math.pi / 2, 0.0, 0.0, math.pi / 2) * 2,
         _swap_matrix(4, [(0, 1), (2, 3)]), "SWAP x SWAP"),
        ((0.0, -_AT2, 0.0, _AT2) * 2,
         _cz_matrix(4, [(0, 1), (2, 3)]), "CZ(1) x CZ(1)"),
    ],
}

_TABLE_LEVELS = {"two-detector": 0, "four-detector": 1, "eight-detector": 2}


def verify_gate_tables() -> list[dict]:
    """Run every printed table row through induced_gate and compare.

    Rows with angles that are multiples of pi/4 are compared exactly; rows
    involving arctan(2) to 1e-10.
    """
    report = []
    for table, rows in GATE_TABLES.items():
        net = build_network(_TABLE_LEVELS[table])
        for angles, expected, label in rows:
            gate = induced_gate(net, angles)
            max_dev = float(np.abs(gate.induced_map.matrix - expected).max())
            if gate.induced_exact is not None:
                ok = np.array_equal(gate.induced_exact.to_float(), expected)
            else:
                ok = max_dev <= 1e-10
            report.append({"table": table, "gate": label, "angles": angles,
                           "pass": bool(ok), "max_dev": max_dev})
    return report


# ---------------------------------------------------------------------------
# numerical angle search

_ARITY_LEVEL = {1: 0, 2: 1, 4: 2}


@dataclass(frozen=True)
class AngleSolution:
    angles: tuple
    residual: float
    reachable: bool


#: Levenberg-Marquardt stopping tolerance (on the step, on the relative
#: decrease of the cost and on the gradient) and iteration cap.
_LM_TOL = 1e-14
_LM_MAX_ITER = 200


def _gate_residuals(sx, target, theta):
    """Residuals of the induced gate against ``target`` at a batch of angle
    vectors on the default wiring, their Jacobian, and which vectors give
    a regular system.

    With M X = R the detector system, X = M^-1 R, and only row d of M and
    R depends on t_d, so dX/dt_d = M^-1[:, d] (dR_d - dM_d X).  dM_d and
    dR_d are rows d of the system at t + pi/2, built in the same call as
    the system at t.  One batched solve against [R | I] gives both X and
    M^-1.  Returns residuals (batch, n*n), Jacobian (batch, n*n, n) and a
    mask of the vectors whose M has |det| >= 1e-12, as in
    :func:`induced_gate`; the others carry finite placeholder values.
    """
    n, b = sx.shape[0], len(theta)
    cos, sin = np.cos(theta), np.sin(theta)
    m, rhs = _detector_system(sx, _default_wiring(n),
                              np.concatenate([cos, -sin]),
                              np.concatenate([sin, cos]))
    sol, ok = _solve_float(m[:b], rhs[:b])
    x, m_inv = sol[..., :n], sol[..., n:]
    v = rhs[b:, :, :n] - m[b:] @ x  # row d: dR_d - dM_d X
    resid = x - target
    jac = np.einsum("bid,bdj->bijd", m_inv, v)
    return resid.reshape(b, n * n), jac.reshape(b, n * n, n), ok


def _levenberg_marquardt(sx, target, starts):
    """Damped Gauss-Newton (Levenberg-Marquardt; More 1978) from every
    start at once; returns the final angle vectors.

    Each start keeps its own damping, updated by the gain ratio (Nielsen
    1999), and stops on a step, relative cost decrease or gradient below
    ``_LM_TOL``.  A start at a singular detector system stays where it
    is, and a trial step onto one is rejected like a step that raises the
    cost.
    """
    theta = np.array(starts, dtype=float)
    n = theta.shape[1]
    resid, jac, live = _gate_residuals(sx, target, theta)
    cost = 0.5 * np.einsum("bi,bi->b", resid, resid)
    diag = np.arange(n)
    # damping in units of the largest diagonal entry of J^T J at the start;
    # its floor keeps the damped normal matrix regular where J loses rank
    scale = 1.0 + np.einsum("bij,bij->bj", jac, jac).max(axis=1)
    damping = 1e-3 * scale
    growth = np.full(len(theta), 2.0)
    for _ in range(_LM_MAX_ITER):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        r, j, lam = resid[idx], jac[idx], damping[idx]
        grad = np.einsum("bki,bk->bi", j, r)
        normal = np.einsum("bki,bkj->bij", j, j)
        normal[:, diag, diag] += lam[:, None]
        step = -np.linalg.solve(normal, grad[..., None])[..., 0]
        trial = theta[idx] + step
        r2, j2, ok = _gate_residuals(sx, target, trial)
        cost2 = 0.5 * np.einsum("bi,bi->b", r2, r2)
        gain = cost[idx] - cost2
        predicted = 0.5 * (lam * np.einsum("bi,bi->b", step, step)
                           - np.einsum("bi,bi->b", grad, step))
        accept = ok & (gain > 0)
        small_grad = np.abs(grad).max(axis=1) <= _LM_TOL
        small_step = np.linalg.norm(step, axis=1) <= _LM_TOL * (
            np.linalg.norm(theta[idx], axis=1) + _LM_TOL)
        small_gain = accept & (gain <= _LM_TOL * cost[idx])
        up = idx[accept]
        theta[up], resid[up], jac[up], cost[up] = (
            trial[accept], r2[accept], j2[accept], cost2[accept])
        rho = gain[accept] / predicted[accept]
        damping[up] = np.maximum(
            damping[up] * np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3),
            _LM_TOL * scale[up])
        growth[up] = 2.0
        down = idx[~accept]
        damping[down] *= growth[down]
        growth[down] *= 2.0
        live[idx[small_grad | small_step | small_gain]] = False
    return theta


def _scores(network, target, candidates):
    """max |G(angles) - target| for each angle vector in ``candidates``,
    inf where :func:`induced_gate` refuses the vector as singular.

    A vector whose every angle is a multiple of pi/4 goes through
    :func:`induced_gate`'s exact path.  All the others are solved in one
    batch by :func:`_solve_float`, with cos and sin from ``math`` as
    :func:`induced_gate` takes them, so each score is the float that
    :func:`induced_gate` would give.
    """
    n = network.n_modes
    exact = np.array([None not in map(_eighth_multiple, ang)
                      for ang in candidates], dtype=bool)
    rest = [ang for ang, e in zip(candidates, exact) if not e]
    cos = np.array([[math.cos(t) for t in ang] for ang in rest]).reshape(-1, n)
    sin = np.array([[math.sin(t) for t in ang] for ang in rest]).reshape(-1, n)
    m, rhs = _detector_system(_float_x_block(network), _default_wiring(n),
                              cos, sin)
    out, regular = _solve_float(m, rhs)
    scores = np.full(len(candidates), math.inf)
    scores[np.flatnonzero(~exact)[regular]] = np.abs(
        out[regular, :, :n] - target).max(axis=(1, 2))
    for i in np.flatnonzero(exact):
        try:
            gate = induced_gate(network, candidates[i]).induced_map.matrix
        except NonImplementableGateError:
            continue
        scores[i] = np.abs(gate - target).max()
    return scores.tolist()


def _wrapped(theta: float) -> float:
    """theta mod pi in [-pi/2, pi/2], put exactly on k*pi/4 where
    :func:`induced_gate` would solve it as that multiple."""
    a = math.remainder(theta, math.pi)
    k = _eighth_multiple(a)
    return a if k is None else k * math.pi / 4


def solve_angles(target: SymplecticMap, arity: int, n_starts: int = 40,
                 seed: int = 0) -> AngleSolution:
    """Search homodyne angles whose induced gate matches the target map.

    The starts are the gate-table angle vectors of this arity and
    ``n_starts`` uniform draws from ``default_rng(seed)``.  All of them
    run at once through one batched Levenberg-Marquardt search on the
    residual G(angles) - target, with the Jacobian in closed form from the
    detector system.  Each result is wrapped mod pi (an angle within
    1e-12*pi/4 of a multiple of pi/4 is put on it) and scored by
    :func:`_scores` as max |G - target|: the results with an angle off the
    multiples of pi/4 in one batched float solve, each score the float
    that :func:`induced_gate` gives, and the others by
    :func:`induced_gate`'s exact path.  Among those below residual 1e-9
    the smallest l2-norm angle vector wins, the first start on a tie.  A residual above
    1e-6 is reported as not reachable (which is not a proof of
    impossibility).
    """
    arity = require_int("arity", arity, 1)
    n_starts = require_int("n_starts", n_starts, 0)
    seed = require_int("seed", seed, 0)
    require_choice("arity", arity, _ARITY_LEVEL)
    net = build_network(_ARITY_LEVEL[arity])
    n = net.n_modes
    tmat = target.matrix
    if tmat.shape != (n, n):
        raise ValueError("target size does not match arity")
    if not np.isfinite(tmat).all():
        raise ValueError(f"target matrix is not finite: {tmat.tolist()}")

    rng = np.random.default_rng(seed)
    starts = [row[0] for rows in GATE_TABLES.values()
              for row in rows if len(row[0]) == n]
    starts += [rng.uniform(-math.pi / 2, math.pi / 2, n)
               for _ in range(n_starts)]
    found = _levenberg_marquardt(_float_x_block(net), tmat, starts)
    candidates = [[_wrapped(a) for a in x] for x in found]
    best = None
    for ang, r in zip(candidates, _scores(net, tmat, candidates)):
        key = (r > 1e-9, r if r > 1e-9 else 0.0, float(np.linalg.norm(ang)))
        if best is None or key < best[0]:
            best = (key, ang, r)
    _, ang, r = best
    return AngleSolution(tuple(ang), r, r <= 1e-6)
