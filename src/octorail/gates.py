"""Teleported-gate extraction from macronode splitter networks.

The gate induced by a choice of homodyne angles is computed in the ideal
(infinitely squeezed ancilla) limit.  Each logical wire enters the network
on an input mode; its Bell ancilla enters on a Bell mode, whose partner is
the output.  The Bell nullifiers x_b = x_out and p_b = -p_out are
substituted, leaving one square system of n = 2k rows, one per detector:
detector d measures sum_j S[d][j] (cos t_d x_j + sin t_d p_j) = m_d.  Its
unknowns are the Bell-mode quadratures (x_b, p_b); the input quadratures
and the outcomes m form the right-hand side.  The solution with its p rows
negated is the output as a linear map of the inputs (the induced symplectic
gate) plus a linear map of the outcomes (the displacement rule).  Angles
that are multiples of pi/4 are solved exactly over Q(sqrt2), others in
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import ExactMatrix, HALF_SQRT2, ONE, ZERO, solve_exact
from .networks import SplitterNetwork, build_network, x_block
from .phasespace import SymplecticMap, make_rotation, make_shear

# Fourier gate: x -> -p, p -> x.  Acts as the logical Hadamard.
FOURIER = SymplecticMap(1, np.array([[0.0, -1.0], [1.0, 0.0]]))


class NonImplementableGateError(ValueError):
    """The angle choice does not implement a deterministic Gaussian map."""


class DegenerateMeasurementError(ValueError):
    """theta2 == theta1 (mod pi): the two homodynes are not independent."""


def teleported_gate_v(theta1: float, theta2: float) -> SymplecticMap:
    """Single-mode gate enacted by one teleportation step at homodyne
    angles (theta1, theta2): a shear of 2/tan(theta2-theta1) sandwiched
    between two equal rotations."""
    delta = theta2 - theta1
    if abs(math.sin(delta)) < 1e-12:
        raise DegenerateMeasurementError("theta2 - theta1 is a multiple of pi")
    r = make_rotation(theta1)
    return r @ make_shear(2.0 / math.tan(delta)) @ r


def displacement_mu(m1: float, m2: float, theta1: float, theta2: float) -> complex:
    """Outcome-dependent displacement accompanying teleported_gate_v."""
    delta = theta2 - theta1
    if abs(math.sin(delta)) < 1e-12:
        raise DegenerateMeasurementError("theta2 - theta1 is a multiple of pi")
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
    """Return integer k with theta = k*pi/4 (mod 2pi), or None."""
    k = theta / (math.pi / 4)
    kr = round(k)
    if abs(k - kr) < 1e-12:
        return kr % 8
    return None


@lru_cache(maxsize=8)
def _float_x_block(network: SplitterNetwork) -> np.ndarray:
    """The network's exact x-block as a read-only float matrix, converted
    once per network for the float path of :func:`induced_gate`."""
    sxf = x_block(network).to_float()
    sxf.flags.writeable = False
    return sxf


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
    if wiring is None:
        wiring = tuple((2 * i, 2 * i + 1) for i in range(n // 2))
    wiring = tuple((int(a), int(b)) for a, b in wiring)
    if sorted([m for w in wiring for m in w]) != list(range(n)):
        raise ValueError("wiring must partition the network modes")
    k = n // 2
    eighths = [_eighth_multiple(t) for t in angles]
    exact = None not in eighths
    if exact:
        sx = x_block(network).rows
        cos_sin = [(_EIGHTH[e], _EIGHTH[(e + 6) % 8]) for e in eighths]
    else:  # angles such as arctan 2
        sx = _float_x_block(network)
        cos_sin = [(math.cos(t), math.sin(t)) for t in angles]
    # row d: detector d's projection, Bell-mode unknowns (x_b, p_b) on the
    # left, input quadratures and outcome m_d on the right
    bell = [b for _, b in wiring]
    inputs = [a for a, _ in wiring]
    m_rows, rhs_rows = [], []
    for d, (c, s) in enumerate(cos_sin):
        row = sx[d]
        m_rows.append([row[j] * c for j in bell] + [row[j] * s for j in bell])
        rhs_rows.append([-(row[j] * c) for j in inputs]
                        + [-(row[j] * s) for j in inputs]
                        + [int(i == d) for i in range(n)])
    # The nullifiers x_b = x_out and p_b = -p_out give the output: the
    # solution with its p rows negated.
    if exact:
        try:
            sol = solve_exact(ExactMatrix(m_rows), ExactMatrix(rhs_rows)).rows
        except ValueError as exc:
            raise NonImplementableGateError(str(exc)) from exc
        out = sol[:k] + [[-e for e in r] for r in sol[k:]]
        a_exact = ExactMatrix([r[:n] for r in out])
        b_exact = ExactMatrix([r[n:] for r in out])
        return TeleportedGate(SymplecticMap(k, a_exact.to_float()),
                              b_exact.to_float(), wiring, a_exact, b_exact)
    m = np.array(m_rows)
    if abs(np.linalg.det(m)) < 1e-12:
        raise NonImplementableGateError("singular constraint system")
    out = np.linalg.solve(m, np.array(rhs_rows, dtype=float))
    out[k:] *= -1.0
    return TeleportedGate(SymplecticMap(k, out[:, :n]), out[:, n:], wiring)


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


def _gate_matrix_or_none(net, angles):
    try:
        return induced_gate(net, angles).induced_map.matrix
    except NonImplementableGateError:
        return None


def solve_angles(target: SymplecticMap, arity: int, n_starts: int = 40,
                 seed: int = 0) -> AngleSolution:
    """Search homodyne angles whose induced gate matches the target map.

    Least-squares over the angle vector (angles taken mod pi); among
    solutions below residual 1e-9 the smallest l2-norm angle vector wins.
    A residual above 1e-6 is reported as not reachable (which is not a
    proof of impossibility).
    """
    from scipy.optimize import least_squares

    if arity not in _ARITY_LEVEL:
        raise ValueError("arity must be 1, 2 or 4")
    net = build_network(_ARITY_LEVEL[arity])
    n = net.n_modes
    tmat = target.matrix
    if tmat.shape != (n, n):
        raise ValueError("target size does not match arity")

    def resid(angles):
        m = _gate_matrix_or_none(net, angles)
        if m is None:
            return np.full(n * n, 1e3)
        return (m - tmat).ravel()

    rng = np.random.default_rng(seed)
    seeds = [np.array(row[0]) for rows in GATE_TABLES.values()
             for row in rows if len(row[0]) == n]
    seeds += [rng.uniform(-math.pi / 2, math.pi / 2, n)
              for _ in range(n_starts)]
    best = None
    for x0 in seeds:
        try:
            res = least_squares(resid, x0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        except Exception:
            continue
        ang = np.array([math.remainder(a, math.pi) for a in res.x])
        r = float(np.abs(resid(ang)).max())
        key = (r > 1e-9, r if r > 1e-9 else 0.0, float(np.linalg.norm(ang)))
        if best is None or key < best[0]:
            best = (key, ang, r)
    ang, r = best[1], best[2]
    return AngleSolution(tuple(float(a) for a in ang), r, r <= 1e-6)
