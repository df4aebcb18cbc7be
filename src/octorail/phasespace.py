"""Symplectic phase-space core.

Quadrature ordering is (x_1..x_N, p_1..p_N) with hbar = 1 and vacuum
variance 1/2 per quadrature.  Sign conventions are pinned by three anchors:
the rotated quadrature x_theta = x cos(theta) + p sin(theta), the
shear decomposition (see ``shear_decomposition``), and the requirement that
the composed eight-mode splitter network reproduces its published transfer
matrix (see the networks module).  So ``make_rotation(theta)`` has x-row
(cos theta, sin theta), and ``make_squeeze(t)`` maps x -> t*x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import require_int, require_real

ATOL = 1e-12


def omega(n_modes: int) -> np.ndarray:
    """Canonical symplectic form for (x-block, p-block) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


@dataclass(frozen=True)
class SymplecticMap:
    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        require_int("n_modes", self.n_modes, 1)
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValueError("matrix shape does not match mode count")

    def is_symplectic(self, atol: float = ATOL) -> bool:
        om = omega(self.n_modes)
        return np.allclose(self.matrix @ om @ self.matrix.T, om, atol=atol)

    def __matmul__(self, other: "SymplecticMap") -> "SymplecticMap":
        """compose(A, B) = A @ B applies B first, then A."""
        if self.n_modes != other.n_modes:
            raise ValueError("mode count mismatch")
        return SymplecticMap(self.n_modes, self.matrix @ other.matrix)

    def inverse(self) -> "SymplecticMap":
        om = omega(self.n_modes)
        # symplectic inverse: M^-1 = Omega^T M^T Omega
        return SymplecticMap(self.n_modes, om.T @ self.matrix.T @ om)


@dataclass(frozen=True)
class GaussianState:
    n_modes: int
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        # 0 is allowed: a homodyne on a one-mode state leaves no modes
        require_int("n_modes", self.n_modes, 0)
        mu = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", cov)
        n2 = 2 * self.n_modes
        if mu.shape != (n2,) or cov.shape != (n2, n2):
            raise ValueError("mean/covariance shape mismatch")

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        n_modes = require_int("n_modes", n_modes, 0)
        return cls(n_modes, np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))

    def is_physical(self) -> bool:
        m = self.covariance + 0.5j * omega(self.n_modes)
        return bool(np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -1e-9)


@dataclass(frozen=True)
class HomodyneOutcome:
    mode: int
    angle: float
    value: float

    def __post_init__(self):
        a = math.remainder(self.angle, 2 * math.pi)
        if a <= -math.pi:
            a += 2 * math.pi
        object.__setattr__(self, "angle", a)


def _embed(local: np.ndarray, modes: tuple[int, ...], n_modes: int) -> np.ndarray:
    """Embed a single/two-mode block (ordered x.., p..) into n_modes."""
    full = np.eye(2 * n_modes)
    idx = [*modes, *(m + n_modes for m in modes)]
    full[np.ix_(idx, idx)] = local
    return full


def _require_modes(n_modes, **modes) -> None:
    """``ValueError`` unless ``n_modes`` is a positive integer and each of
    ``modes`` an integer in [0, n_modes)."""
    require_int("n_modes", n_modes, 1)
    for name, mode in modes.items():
        if require_int(name, mode, 0) >= n_modes:
            raise ValueError(f"{name} must be below {n_modes}, got {mode}")


def identity_map(n_modes: int = 1) -> SymplecticMap:
    n_modes = require_int("n_modes", n_modes, 1)
    return SymplecticMap(n_modes, np.eye(2 * n_modes))


def make_rotation(theta: float, mode: int = 0, n_modes: int = 1) -> SymplecticMap:
    """Rotation pinned so the x-row gives x_theta = x cos(theta) + p sin(theta)."""
    require_real("theta", theta)
    _require_modes(n_modes, mode=mode)
    c, s = math.cos(theta), math.sin(theta)
    local = np.array([[c, s], [-s, c]])
    return SymplecticMap(n_modes, _embed(local, (mode,), n_modes))


def make_squeeze(t: float, mode: int = 0, n_modes: int = 1) -> SymplecticMap:
    """Squeeze x -> t*x, p -> p/t."""
    require_real("t", t, positive=True)
    _require_modes(n_modes, mode=mode)
    local = np.array([[t, 0.0], [0.0, 1.0 / t]])
    return SymplecticMap(n_modes, _embed(local, (mode,), n_modes))


def make_shear(sigma: float, mode: int = 0, n_modes: int = 1) -> SymplecticMap:
    """Shear x -> x, p -> p + sigma*x."""
    require_real("sigma", sigma)
    _require_modes(n_modes, mode=mode)
    local = np.array([[1.0, 0.0], [sigma, 1.0]])
    return SymplecticMap(n_modes, _embed(local, (mode,), n_modes))


def make_beamsplitter(phi: float, mode_j: int, mode_k: int,
                      n_modes: int = 2) -> SymplecticMap:
    """Beamsplitter mixing modes j and k identically on x and p blocks.

    At phi = pi/4 the (x_j, x_k) block is [[1, -1], [1, 1]]/sqrt(2); this
    orientation is the one that composes to the published eight-mode network
    matrix.
    """
    require_real("phi", phi)
    _require_modes(n_modes, mode_j=mode_j, mode_k=mode_k)
    if mode_j == mode_k:
        raise ValueError("beamsplitter modes must differ")
    c, s = math.cos(phi), math.sin(phi)
    block = np.array([[c, -s], [s, c]])
    local = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
    return SymplecticMap(n_modes, _embed(local, (mode_j, mode_k), n_modes))


def shear_decomposition(sigma: float) -> tuple[float, float, float]:
    """Return (theta_a, t, theta_b) with
    make_rotation(theta_a) @ make_squeeze(t) @ make_rotation(theta_b)
    equal to make_shear(sigma).

    theta_a = gamma, t = tan(gamma), theta_b = gamma - pi/2 with
    gamma = atan2(2, sigma)/2.  Note: the widely quoted variant with
    theta_b = -gamma - pi/2 (reading the rotations as R(-gamma),
    R(-gamma - pi/2)) composes to the shear times a pi rotation; the final
    rotation angle here differs from it by pi.
    """
    gamma = 0.5 * math.atan2(2.0, sigma)
    return gamma, math.tan(gamma), gamma - math.pi / 2


def make_cz(g: float, mode_j: int = 0, mode_k: int = 1,
            n_modes: int = 2) -> SymplecticMap:
    """Controlled-Z: x unchanged, p_j += g*x_k, p_k += g*x_j."""
    require_real("g", g)
    _require_modes(n_modes, mode_j=mode_j, mode_k=mode_k)
    if mode_j == mode_k:
        raise ValueError("modes must differ")
    m = np.eye(2 * n_modes)
    m[n_modes + mode_j, mode_k] = g
    m[n_modes + mode_k, mode_j] = g
    return SymplecticMap(n_modes, m)


def apply(smap: SymplecticMap, state: GaussianState) -> GaussianState:
    if smap.n_modes != state.n_modes:
        raise ValueError("mode count mismatch")
    m = smap.matrix
    return GaussianState(state.n_modes, m @ state.mean,
                         m @ state.covariance @ m.T)


def _delete_mode(mean, cov, mode, n_modes):
    drop = {mode, mode + n_modes}
    keep = [i for i in range(2 * n_modes) if i not in drop]
    return mean[keep], cov[np.ix_(keep, keep)]


def homodyne_condition(state: GaussianState, mode: int, angle: float,
                       rng_or_value) -> tuple[HomodyneOutcome, GaussianState]:
    """Measure x_theta on one mode; returns outcome and conditioned state
    with that mode removed.

    ``rng_or_value`` is either a numpy Generator (outcome sampled from the
    marginal) or a float (outcome forced, for deterministic tests).
    """
    _require_modes(state.n_modes, mode=mode)
    n = state.n_modes
    rotated = apply(make_rotation(angle, mode, n), state)
    mu, cov = rotated.mean, rotated.covariance
    q = mode  # x-index of the rotated quadrature
    var = cov[q, q]
    if var < 1e-14:
        raise ValueError("marginal variance is singular")
    if isinstance(rng_or_value, (int, float)):
        value = float(rng_or_value)
    else:
        value = rng_or_value.normal(mu[q], math.sqrt(var))
    rest = [i for i in range(2 * n) if i != q]
    gain = cov[rest, q] / var
    mu_c = mu.copy()
    mu_c[rest] = mu[rest] + gain * (value - mu[q])
    cov_c = cov.copy()
    cov_c[np.ix_(rest, rest)] = (cov[np.ix_(rest, rest)]
                                 - np.outer(gain, cov[q, rest]))
    mu_new, cov_new = _delete_mode(mu_c, cov_c, mode, n)
    out_state = GaussianState(n - 1, mu_new, cov_new)
    return HomodyneOutcome(mode, angle, value), out_state


def heterodyne_condition(state: GaussianState, mode: int,
                         angles_pair: tuple[float, float] = (0.0, math.pi / 2),
                         rng_or_values=None,
                         ) -> tuple[HomodyneOutcome, HomodyneOutcome, GaussianState]:
    """Split the mode on a balanced beamsplitter with fresh vacuum and
    homodyne the two outputs at the given pair of angles."""
    _require_modes(state.n_modes, mode=mode)
    n = state.n_modes
    # append a vacuum mode
    mu = np.zeros(2 * (n + 1))
    cov = 0.5 * np.eye(2 * (n + 1))
    old_idx = list(range(n)) + list(range(n + 1, 2 * n + 1))
    mu[old_idx] = state.mean
    cov[np.ix_(old_idx, old_idx)] = state.covariance
    big = GaussianState(n + 1, mu, cov)
    big = apply(make_beamsplitter(math.pi / 4, mode, n, n + 1), big)
    if rng_or_values is None:
        rng_or_values = np.random.default_rng()
    if isinstance(rng_or_values, (tuple, list)):
        v1, v2 = rng_or_values
    else:
        v1 = v2 = rng_or_values
    out1, big = homodyne_condition(big, mode, angles_pair[0], v1)
    # the appended mode shifted down by one after the first removal
    out2, final = homodyne_condition(big, n - 1, angles_pair[1], v2)
    return out1, out2, final
