"""GKP encodings, squeezing conversions, homodyne-angle transforms, logical
action of symplectic maps, and a small position-grid simulator for qunaught
states, Bell pairs and teleportation-based error correction.

Conventions
-----------
hbar = 1, vacuum quadrature variance 1/2.  Symplectic matrices act on
(x, p) in the convention of :mod:`octorail.phasespace`, where operator
products map to matrix products in the same order; the rotation printed by
``make_rotation(theta)`` has x-row (cos, sin).  The operator transpose
defined by x -> x, p -> -p corresponds at the matrix level to
M -> diag(1,-1) @ inv(M) @ diag(1,-1) (verified against the rotation and
shear decomposition identities it must satisfy).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .checks import require_choice, require_int, require_real
from .gates import _homodyne_delta
from .phasespace import (SymplecticMap, identity_map, make_rotation,
                         make_squeeze)

SQRT_PI = math.sqrt(math.pi)
QUNAUGHT_SPACING = math.sqrt(2 * math.pi)

_LAMBDA = np.diag([1.0, -1.0])


# --------------------------------------------------------------------------
# squeezing bookkeeping
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SqueezingLevel:
    delta_sq: float
    db: float

    def __post_init__(self):
        require_real("delta_sq", self.delta_sq, positive=True)
        require_real("db", self.db)
        if abs(self.db + 10 * math.log10(self.delta_sq)) > 1e-12:
            raise ValueError("inconsistent delta_sq / db pair")


def db_conversion(value: float, direction: str) -> SqueezingLevel:
    """Convert between the quadrature-variance parameter and decibels,
    db = -10*log10(delta_sq)."""
    if require_choice("direction", direction, ("to-db", "from-db")) == "to-db":
        require_real("delta_sq", value, positive=True)
        return SqueezingLevel(value, -10 * math.log10(value))
    require_real("db", value)
    return SqueezingLevel(10 ** (-value / 10), value)


def _require_below_one(delta_sq) -> None:
    """``ValueError`` unless ``delta_sq`` is a real number in (0, 1)."""
    require_real("delta_sq", delta_sq, positive=True)
    if delta_sq >= 1:
        raise ValueError(f"delta_sq must be below 1, got {delta_sq!r}")


def p_error(delta_sq: float) -> float:
    """Asymptotic misbinning probability of a single homodyne readout,
    (2*Delta/pi) * exp(-pi/(4*Delta^2))."""
    _require_below_one(delta_sq)
    delta = math.sqrt(delta_sq)
    return (2 * delta / math.pi) * math.exp(-math.pi / (4 * delta_sq))


def p_error_tail_oracle(delta_sq: float) -> float:
    """Numeric companion to :func:`p_error`: the Gaussian mass a peak of
    variance delta_sq/2 places outside [-sqrt(pi)/2, sqrt(pi)/2)."""
    _require_below_one(delta_sq)
    return math.erfc(SQRT_PI / (2 * math.sqrt(delta_sq)))


# --------------------------------------------------------------------------
# encodings
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Encoding:
    kind: str
    u_g: SymplecticMap
    alpha: float | None = None

    def __post_init__(self):
        if self.alpha is not None:
            require_real("alpha", self.alpha, positive=True)
        if not self.u_g.is_symplectic(atol=1e-9):
            raise ValueError("encoding map must be symplectic")

    @property
    def lattice_basis(self) -> np.ndarray:
        """Columns are the logical-X and logical-Z quadrature displacements
        (cell area pi for one encoded qubit)."""
        return self.u_g.matrix @ (SQRT_PI * np.eye(2))


def square_encoding() -> Encoding:
    return Encoding("square", identity_map())


def rectangular_encoding(alpha: float) -> Encoding:
    require_real("alpha", alpha, positive=True)
    return Encoding("rectangular", make_squeeze(SQRT_PI / alpha), alpha)


def hexagonal_encoding() -> Encoding:
    # squeeze by 3^(1/4) composed after a pi/4 rotation; the rotation sign
    # follows the operator-to-matrix convention in the module docstring
    u = make_squeeze(3 ** 0.25) @ make_rotation(-math.pi / 4)
    return Encoding("hexagonal", u)


def custom_encoding(u_g: SymplecticMap) -> Encoding:
    return Encoding("custom", u_g)


def transpose_map(smap: SymplecticMap) -> SymplecticMap:
    """Operator transpose (x -> x, p -> -p) at the symplectic level."""
    m = smap.matrix
    return SymplecticMap(1, _LAMBDA @ np.linalg.inv(m) @ _LAMBDA)


# --------------------------------------------------------------------------
# rotation-shear-rotation factorization and angle transforms
# --------------------------------------------------------------------------

def _rot(w: float) -> np.ndarray:
    # matrix representing the rotation operator R(w) in the module's
    # operator-to-matrix convention
    return make_rotation(-w).matrix


def _shear(lam: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [lam, 1.0]])


def decompose_rpr(smap: SymplecticMap) -> tuple[float, float, float]:
    """Factor a single-mode symplectic map as rotation(w1) . shear(lam)
    . rotation(w2)."""
    m = smap.matrix
    a, b = m[0], m[1]
    big_a = (a @ a - b @ b) / 2
    big_b = a @ b
    big_c = 1 - (a @ a + b @ b) / 2
    r0 = math.hypot(big_a, big_b)
    if r0 < 1e-12:
        candidates = [0.0]
    else:
        delta = math.atan2(big_b, big_a)
        acos = math.acos(max(-1.0, min(1.0, big_c / r0)))
        candidates = [(delta + acos) / 2, (delta - acos) / 2]
    for w1 in candidates:
        n = _rot(-w1) @ m
        w2 = math.atan2(-n[0, 1], n[0, 0])
        lam = n[1, 0] * n[0, 0] + n[1, 1] * n[0, 1]
        rebuilt = _rot(w1) @ _shear(lam) @ _rot(w2)
        if np.abs(rebuilt - m).max() < 1e-9:
            # fold w1 into (-pi/2, pi/2]; shifting both rotations by pi
            # leaves the product invariant
            while w1 <= -math.pi / 2:
                w1, w2 = w1 + math.pi, w2 + math.pi
            while w1 > math.pi / 2:
                w1, w2 = w1 - math.pi, w2 - math.pi
            return w1, lam, w2
    raise ValueError("map does not factor as rotation-shear-rotation")


def _cot(x: float) -> float:
    return 1.0 / math.tan(x)


def transform_angles(theta1: float, theta2: float,
                     encoding: Encoding) -> tuple[float, float]:
    """Homodyne angles (phi1, phi2) whose teleported gate equals the
    conjugated gate U^{dagger T} V(theta1, theta2) U^{dagger} for the
    encoding map U.

    Closed forms in terms of the rotation-shear-rotation factors of U; the
    leading factor of the shear-strength expression is
    sin^2(theta1+w2)/sin^2(phi1-w1) (the simpler first-power ratio quoted
    alongside the derivation does not satisfy the defining identity; this
    form is validated against the matrix identity).  The branch with
    cos(theta') = 0 (theta1 + w2 a multiple of pi) is handled separately.
    """
    delta = _homodyne_delta(theta1, theta2)
    w1, lam, w2 = decompose_rpr(encoding.u_g)
    s = theta1 + w2
    if abs(math.sin(s)) < 1e-10:
        phi1 = w1
        phi2 = math.atan2(1.0, _cot(delta) - lam) + phi1
        return _fold_angle(phi1), _fold_angle(phi2)
    phi1 = w1 - math.pi / 2 - math.atan(_cot(s) - lam)
    ratio = math.sin(s) ** 2 / math.sin(phi1 - w1) ** 2
    inner = ratio * (_cot(delta) + _cot(s)) - _cot(phi1 - w1)
    phi2 = math.atan2(1.0, inner) + phi1
    return _fold_angle(phi1), _fold_angle(phi2)


def _fold_angle(phi: float) -> float:
    # the teleported gate is invariant under shifting either angle by pi,
    # so angles are reported in (-pi/2, pi/2]
    phi = math.remainder(phi, math.pi)
    return phi if phi > -math.pi / 2 else phi + math.pi


# --------------------------------------------------------------------------
# logical action of symplectic maps
# --------------------------------------------------------------------------

def _mod2_label() -> dict:
    i2 = np.eye(2, dtype=int)
    h = np.array([[0, 1], [1, 0]])
    p = np.array([[1, 0], [1, 1]])
    table = {}
    for label, mat in (("I", i2), ("H", h), ("P", p),
                       ("HP", h @ p), ("PH", p @ h), ("HPH", h @ p @ h)):
        table[tuple((mat % 2).ravel())] = label
    return table


_MOD2_LABELS = _mod2_label()


@dataclass(frozen=True)
class LogicalAction:
    preserves_lattice: bool
    clifford_label: str | None
    integer_matrix: np.ndarray | None
    fractional_part: np.ndarray | None


def logical_action(smap: SymplecticMap, encoding: Encoding) -> LogicalAction:
    """Classify how a symplectic map acts on the encoding's logical
    displacement lattice (the encoding is applied per mode).

    The map is logical-Clifford when it maps the lattice to itself
    (integer basis transform of determinant +-1); the induced action on the
    logical Paulis is the transform mod 2.  The Clifford name is resolved
    for single-mode maps; multi-mode maps report the integer matrix only.
    """
    n = smap.n_modes
    b2 = encoding.lattice_basis
    eye = np.eye(n)
    basis = np.block([[b2[0, 0] * eye, b2[0, 1] * eye],
                      [b2[1, 0] * eye, b2[1, 1] * eye]])
    a = np.linalg.solve(basis, smap.matrix @ basis)
    rounded = np.rint(a)
    frac = a - rounded
    if np.abs(frac).max() > 1e-9 or abs(abs(np.linalg.det(rounded)) - 1) > 1e-9:
        return LogicalAction(False, None, None, frac)
    ints = rounded.astype(int)
    label = _MOD2_LABELS[tuple((ints % 2).ravel())] if n == 1 else None
    return LogicalAction(True, label, ints, None)


# --------------------------------------------------------------------------
# position-grid simulator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    dx: float
    half_steps: int

    def __post_init__(self):
        require_real("dx", self.dx, positive=True)
        require_int("half_steps", self.half_steps, 1)

    @property
    def axis(self) -> np.ndarray:
        return np.arange(-self.half_steps, self.half_steps + 1) * self.dx

    @property
    def size(self) -> int:
        return 2 * self.half_steps + 1


def default_grid() -> Grid:
    """dx = sqrt(pi)/16, extent 12*sqrt(pi)."""
    return Grid(SQRT_PI / 16, 96)


def fine_grid() -> Grid:
    """dx = sqrt(pi)/32, extent 16*sqrt(pi); for strict circuit-vs-formula
    comparisons near half-grid outcomes."""
    return Grid(SQRT_PI / 32, 256)


@dataclass(frozen=True)
class GridWavefunction:
    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != (self.grid.size,):
            raise ValueError("amplitude length does not match the grid")

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real
                         * self.grid.dx)

    def normalized(self) -> "GridWavefunction":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero wavefunction")
        return GridWavefunction(self.grid, self.amplitudes / n)


def overlap(a: GridWavefunction, b: GridWavefunction) -> complex:
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    return np.vdot(a.amplitudes, b.amplitudes) * a.grid.dx


def fidelity(a: GridWavefunction, b: GridWavefunction) -> float:
    return abs(overlap(a.normalized(), b.normalized())) ** 2


#: Points per slab of the peaks-by-points array in qunaught_amplitude: a
#: 1-D grid table is one slab, and a 2-D argument never holds all peaks
#: against all points at once.
_POINTS_PER_SLAB = 4096


def qunaught_amplitude(x, delta_sq: float):
    """Position amplitude (unnormalized) of a damped qunaught state.

    Peaks sit at multiples of sqrt(2*pi) scaled by 1/cosh(beta) with
    amplitude variance tanh(beta) and Gaussian envelope
    exp(-tanh(beta)/2 * mu^2), where sinh(beta) = delta_sq.  This is the
    damping operator applied exactly to the ideal spike comb; it agrees
    with the usual double-Gaussian approximate form (peak variance
    delta_sq, centers scaled by sqrt(1 - delta_sq^2)) to relative order
    delta_sq^3.
    """
    beta = math.asinh(delta_sq)
    th, ch = math.tanh(beta), math.cosh(beta)
    x = np.asarray(x, dtype=float)
    kmax = int(np.ceil(np.abs(x).max() / QUNAUGHT_SPACING)) + 2
    mus = np.arange(-kmax, kmax + 1) * QUNAUGHT_SPACING
    envelope = np.array([math.exp(-0.5 * th * mu * mu) for mu in mus])
    centers = mus / ch
    flat = x.ravel()
    out = np.empty_like(flat)
    # one row per peak against a slab of points; the sum over the rows adds
    # the peaks in order, as accumulating them one at a time would
    for i in range(0, flat.size, _POINTS_PER_SLAB):
        part = flat[i:i + _POINTS_PER_SLAB]
        out[i:i + _POINTS_PER_SLAB] = (
            envelope[:, None]
            * np.exp(-(part - centers[:, None]) ** 2 / (2 * th))).sum(axis=0)
    return out.reshape(x.shape)


def make_qunaught(delta_sq: float, grid: Grid | None = None) -> GridWavefunction:
    """Normalized damped qunaught state on the grid."""
    require_real("delta_sq", delta_sq, positive=True)
    grid = grid or default_grid()
    peak_std = math.sqrt(math.tanh(math.asinh(delta_sq)))
    if grid.dx > peak_std:
        raise ValueError("grid spacing does not resolve the peaks")
    return GridWavefunction(grid,
                            qunaught_amplitude(grid.axis, delta_sq)
                            ).normalized()


def make_gaussian_wavepacket(grid: Grid, x0: float = 0.0, p0: float = 0.0,
                             variance: float = 0.5) -> GridWavefunction:
    """Normalized Gaussian wavepacket; the default variance 1/2 is the
    vacuum state."""
    require_real("x0", x0)
    require_real("p0", p0)
    require_real("variance", variance, positive=True)
    axis = grid.axis
    amp = np.exp(-(axis - x0) ** 2 / (4 * variance) + 1j * p0 * axis)
    return GridWavefunction(grid, amp).normalized()


def fourier_wavefunction(wf: GridWavefunction) -> GridWavefunction:
    """Wavefunction of the Fourier-rotated state, evaluated on the same
    axis: psi_F(k) = (2*pi)^(-1/2) * integral exp(-i*k*x) psi(x) dx."""
    axis = wf.grid.axis
    kernel = np.exp(-1j * np.outer(axis, axis)) / math.sqrt(2 * math.pi)
    return GridWavefunction(wf.grid, kernel @ wf.amplitudes * wf.grid.dx)


def _damping_kernel(beta: float, xs: np.ndarray,
                    ys: np.ndarray) -> np.ndarray:
    """Unnormalized position kernel K(x, y) of the damping operator
    exp(-beta * n), with x over ``xs`` (rows) and y over ``ys`` (columns).
    The full operator on a grid passes its axis twice; a sum over a subset
    of columns needs only those points as ``ys``."""
    sh, ch = math.sinh(beta), math.cosh(beta)
    xs, ys = xs[:, None], ys[None, :]
    return np.exp(-((xs ** 2 + ys ** 2) * ch - 2 * xs * ys) / (2 * sh))


@lru_cache(maxsize=16)
def _code_masks(grid: Grid) -> tuple:
    """Read-only masks of the even and odd sqrt(pi) spikes on the grid,
    computed once per grid."""
    ratio = grid.axis / SQRT_PI
    masks = []
    for j in (0, 1):
        r = np.remainder(ratio - j, 2.0)
        mask = (np.isclose(r, 0.0, atol=1e-9)
                | np.isclose(r, 2.0, atol=1e-9))
        mask.flags.writeable = False
        masks.append(mask)
    return tuple(masks)


def code_projection(wf: GridWavefunction) -> GridWavefunction:
    """Projection onto the ideal square-code manifold (spike combs at even
    and odd multiples of sqrt(pi); requires a sqrt(pi)-aligned grid)."""
    out = np.zeros(wf.grid.size, dtype=complex)
    for mask in _code_masks(wf.grid):
        out = out + np.where(mask, wf.amplitudes[mask].sum(), 0)
    return GridWavefunction(wf.grid, out)


def logical_amplitudes(wf: GridWavefunction) -> tuple[complex, complex]:
    """Ideal-code components (c0, c1) of the wavefunction: sums over the
    even and odd sqrt(pi) spikes."""
    m0, m1 = _code_masks(wf.grid)
    return wf.amplitudes[m0].sum(), wf.amplitudes[m1].sum()


# --------------------------------------------------------------------------
# teleportation-based error correction on the grid
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KnillResult:
    output: GridWavefunction
    outcomes: tuple


def _bell_amplitude(v, xb, delta_sq):
    """Two-qunaught Bell-pair amplitude evaluated at off-grid first
    coordinate v (column) against grid coordinate xb (row vector)."""
    s2 = math.sqrt(2)
    return (qunaught_amplitude((v[:, None] + xb) / s2, delta_sq)
            * qunaught_amplitude((xb - v[:, None]) / s2, delta_sq))


def _half_step_points(grid: Grid) -> np.ndarray:
    """The 4h + 1 points k*dx/sqrt2, k = -2h..2h, at which the rotated
    coordinates (x +- y)/sqrt2 of two grid points fall."""
    h = grid.half_steps
    return np.arange(-2 * h, 2 * h + 1) * (grid.dx / math.sqrt(2))


def _hankel_toeplitz(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The N x N product a[i + j] * b[j - i + N - 1] of two tables of
    2N - 1 entries.  Row i of a table's sliding windows is table[i:i + N],
    so the windows are the Hankel factor and, in reverse row order, the
    Toeplitz one."""
    n = (len(a) + 1) // 2
    windows = np.lib.stride_tricks.sliding_window_view
    return windows(a, n) * windows(b, n)[::-1]


def _interpolant(wf: GridWavefunction):
    """Cubic-spline interpolant of the amplitudes, zero off the grid."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(wf.grid.axis, wf.amplitudes, extrapolate=False)

    def input_at(points):
        vals = spline(points)
        return np.where(np.isnan(vals), 0.0, vals)

    return input_at


def _x_marginal(input_at, grid: Grid, delta_sq: float) -> np.ndarray:
    """Unnormalized probabilities of the x outcome m1 = axis[i].

    The conditional block at axis[i] is input_at((axis[i] + axis[r])/sqrt2)
    times the Bell amplitude at (axis[r] - axis[i])/sqrt2 against the grid,
    and both rotated coordinates are half-step points: index i + r and
    r - i + 2h.  So the weight, the block's squared norm, is the row sum of
    F[i + r] * G[r - i + 2h] with F the input's and G the Bell pair's
    squared magnitudes (summed over the grid) on those points.
    """
    points = _half_step_points(grid)
    f = np.abs(input_at(points)) ** 2
    g = (np.abs(_bell_amplitude(points, grid.axis[None, :], delta_sq))
         ** 2).sum(axis=1)
    return _hankel_toeplitz(f, g).sum(axis=1)


def knill_step(input_wf: GridWavefunction, delta_sq: float,
               forced_outcomes: tuple | None = None,
               seed: int | None = None) -> KnillResult:
    """One teleportation-based error-correction step with damped qunaught
    ancillas.

    Two qunaughts are entangled on a balanced beamsplitter; the input joins
    one half on a second beamsplitter; the input port is measured in x
    (outcome m1) and the ancilla port in p (outcome m2), either forced or
    sampled from the joint homodyne distribution.  The normalized
    conditional output matches damping . code-projection . damping .
    displacement applied to the input (see :func:`knill_oracle`).
    ``ValueError`` unless ``delta_sq`` is finite and positive, each forced
    outcome finite and ``seed`` None or a non-negative integer.
    """
    require_real("delta_sq", delta_sq, positive=True)
    if forced_outcomes is not None:
        m1, m2 = forced_outcomes
        require_real("m1", m1)
        require_real("m2", m2)
    if seed is not None:
        seed = require_int("seed", seed, 0)
    grid = input_wf.grid
    axis = grid.axis
    s2 = math.sqrt(2)
    input_at = _interpolant(input_wf)

    if forced_outcomes is None:
        rng = np.random.default_rng(seed)
        weights = _x_marginal(input_at, grid, delta_sq)
        m1 = float(rng.choice(axis, p=weights / weights.sum()))
    u = (m1 + axis) / s2
    v = (axis - m1) / s2
    block = input_at(u)[:, None] * _bell_amplitude(v, axis[None, :], delta_sq)
    if forced_outcomes is None:
        # conditional distribution of the p outcome on the ancilla port
        spectrum = np.fft.fft(block, axis=0)
        p_axis = 2 * math.pi * np.fft.fftfreq(grid.size, grid.dx)
        pw = (np.abs(spectrum) ** 2).sum(axis=1)
        pw /= pw.sum()
        m2 = float(rng.choice(p_axis, p=pw))
    out = np.exp(-1j * m2 * axis) @ block
    return KnillResult(GridWavefunction(grid, out).normalized(), (m1, m2))


def knill_oracle(input_wf: GridWavefunction, delta_sq: float,
                 m1: float, m2: float) -> GridWavefunction:
    """Closed-form reference for :func:`knill_step`: damping(beta) .
    code-projection . damping(beta) . displacement(mu) with
    sinh(beta) = delta_sq and mu = -m1 - i*m2 for the (x, p) homodyne pair.
    ``ValueError`` unless ``delta_sq`` is finite and positive and ``m1``
    and ``m2`` are finite."""
    require_real("delta_sq", delta_sq, positive=True)
    require_real("m1", m1)
    require_real("m2", m2)
    grid = input_wf.grid
    axis = grid.axis
    beta = math.asinh(delta_sq)
    shift_x, shift_p = -math.sqrt(2) * m1, -math.sqrt(2) * m2
    k = 2 * math.pi * np.fft.fftfreq(grid.size, grid.dx)
    psi = np.fft.ifft(np.fft.fft(input_wf.amplitudes)
                      * np.exp(-1j * k * shift_x))
    psi = psi * np.exp(1j * shift_p * axis)
    kernel = _damping_kernel(beta, axis, axis)
    psi = kernel @ psi
    psi = code_projection(GridWavefunction(grid, psi)).amplitudes
    psi = kernel @ psi
    return GridWavefunction(grid, psi).normalized()


# --------------------------------------------------------------------------
# heterodyne magic-state probe
# --------------------------------------------------------------------------

#: Bloch axes whose +-1 eigenstates are Clifford images of the
#: Hadamard-eigenstate magic states: the 12 unit vectors with two
#: components +-1/sqrt2 and one zero, one per row.
_H_TYPE_AXES = np.array([v for v in itertools.product((-1, 0, 1), repeat=3)
                         if v.count(0) == 1]) / math.sqrt(2)


@dataclass(frozen=True)
class MagicProbeSample:
    alpha: complex
    weight: float
    bloch: tuple
    h_axis_distance: float
    projection_fidelity: float


@dataclass(frozen=True)
class MagicProbeResult:
    delta_sq: float
    samples: list
    fraction_near_h_axis: float
    seed: int


def _probe_kernels(delta_sq: float, grid: Grid):
    """Bell kernel and damped code combs of a magic probe, for every sample.

    On the grid the Bell kernel's first factor depends only on i + j and
    its second only on j - i, so both are read from one qunaught table on
    the half-step points: bell[i, j] = table[i + j] * table[j - i + 2h],
    the same values as ``_bell_amplitude(axis, axis[None, :], delta_sq)``
    up to rounding.

    The ideal code projection puts a state's spike sums c0 and c1 on the
    even and odd sqrt(pi) spikes, so the damped projection is
    c0 * combs[0] + c1 * combs[1], where combs[j][x] = sum over the spikes
    y of set j of the damping kernel K(x, y).  Each comb needs the kernel
    against its own spikes only: 7 and 6 of the 193 points on the default
    grid.
    """
    require_real("delta_sq", delta_sq, positive=True)
    table = qunaught_amplitude(_half_step_points(grid), delta_sq)
    beta = math.asinh(delta_sq)
    axis = grid.axis
    combs = np.array([_damping_kernel(beta, axis, axis[mask]).sum(axis=1)
                      for mask in _code_masks(grid)])
    return _hankel_toeplitz(table, table), combs


def _row_products(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` times ``matrix`` (or times its own matrix, when
    ``matrix`` is stacked like the rows), as one product per row.  A
    stacked product rounds a row the same way whatever the number of rows;
    a 2-D product or a sum over an axis does not."""
    return np.matmul(rows[..., None, :], matrix)[..., 0, :]


def _probe_samples(alphas: np.ndarray, grid: Grid, bell: np.ndarray,
                   combs: np.ndarray) -> list:
    """Conditional states of one Bell-pair half for the coherent values
    ``alphas`` (shape (n,)), evaluated together.

    Each state is u = conj(coherent) @ bell * dx, built from two real
    products with the kernel, one for the real part and one for the
    imaginary part.  The weight is ||u||^2.  Everything else is closed form
    in the spike sums c_j and the comb overlaps p_j = sum u * combs[j]: the
    Bloch vector of (c0, c1), its distance to the nearest H-type axis, and
    the fidelity |c0 conj(p0) + c1 conj(p1)|^2 / (||u||^2 ||proj||^2) of u
    with its damped projection proj = c0 combs[0] + c1 combs[1], where
    ||proj||^2 = sum_jk conj(c_j) c_k combs[j] . combs[k].  Every reduction
    is a per-row product (``_row_products``), so a sample's record does not
    depend on the other samples of the batch.
    """
    axis, dx = grid.axis, grid.dx
    shift = math.sqrt(2) * alphas.real[:, None]
    phase = math.sqrt(2) * alphas.imag[:, None] * axis
    envelope = math.pi ** -0.25 * np.exp(-(axis - shift) ** 2 / 2)
    # the real and imaginary parts of conj(coherent), then of u
    u = _row_products(np.stack([envelope * np.cos(phase),
                                -envelope * np.sin(phase)]), bell) * dx
    re_sq, im_sq = _row_products(u, u[..., None])[..., 0]
    norm_sq = re_sq + im_sq
    if not norm_sq.all():
        raise ValueError("cannot normalize the zero wavefunction")
    masks = _code_masks(grid)
    # columns: the two spike indicators, then the two combs
    sums = _row_products(u, np.column_stack([*masks, *combs]))
    (a0, a1, q0, q1), (b0, b1, s0, s1) = np.moveaxis(sums, -1, 1)
    pop0, pop1 = a0 * a0 + b0 * b0, a1 * a1 + b1 * b1
    cross_re, cross_im = a0 * a1 + b0 * b1, a0 * b1 - b0 * a1
    pop = pop0 + pop1
    bloch = np.stack([2 * cross_re / pop, 2 * cross_im / pop,
                      (pop0 - pop1) / pop], axis=1)
    offsets = bloch[:, None, :] - _H_TYPE_AXES
    dist = np.sqrt(offsets[..., 0] ** 2 + offsets[..., 1] ** 2
                   + offsets[..., 2] ** 2).min(axis=1) / 2
    gram = combs @ combs.T
    overlap_re = a0 * q0 + b0 * s0 + a1 * q1 + b1 * s1
    overlap_im = b0 * q0 - a0 * s0 + b1 * q1 - a1 * s1
    proj_sq = (pop0 * gram[0, 0] + pop1 * gram[1, 1]
               + 2 * cross_re * gram[0, 1])
    pf = (overlap_re ** 2 + overlap_im ** 2) / (norm_sq * proj_sq)
    return [MagicProbeSample(alpha, weight, tuple(r), d, f)
            for alpha, weight, r, d, f in zip(
                alphas.tolist(), (norm_sq * dx).tolist(), bloch.tolist(),
                dist.tolist(), pf.tolist())]


def magic_probe_single(delta_sq: float, alpha: complex,
                       grid: Grid | None = None) -> MagicProbeSample:
    """Project one half of a qunaught Bell pair onto the coherent value
    alpha and report the logical content of the other half."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    grid = grid or default_grid()
    return _probe_samples(np.array([alpha]), grid,
                          *_probe_kernels(delta_sq, grid))[0]


#: Samples evaluated together by heterodyne_magic_probe; a block's arrays
#: take about 3 KB per sample on the default grid.
_PROBE_BLOCK = 256


def heterodyne_magic_probe(delta_sq: float, samples: int,
                           seed: int, grid: Grid | None = None
                           ) -> MagicProbeResult:
    """Importance-sampled heterodyne outcomes on one Bell-pair half.

    Coherent values are proposed from a broad Gaussian and reweighted by
    the exact outcome likelihood; the summary reports the weighted fraction
    of conditional states whose Bloch vector lies within trace distance
    0.15 of a two-component (magic-type) axis.  All coherent values are
    drawn first, then evaluated in blocks of ``_PROBE_BLOCK`` against one
    Bell kernel and one pair of damped combs (``_probe_kernels``,
    ``_probe_samples``); each record equals what ``magic_probe_single``
    gives for its alpha.  NumPy integer counts are used, and echoed, as
    Python ints.
    """
    samples = require_int("samples", samples, 1)
    seed = require_int("seed", seed, 0)
    grid = grid or default_grid()
    kernels = _probe_kernels(delta_sq, grid)
    rng = np.random.default_rng(seed)
    std = math.sqrt((1 / (2 * delta_sq) + 0.5) / 2)
    # one (re, im) pair per row: the same draws, in the same order, as
    # alternating scalar draws
    alphas = rng.normal(0, std, size=(samples, 2)).view(complex)[:, 0]
    records = []
    for start in range(0, samples, _PROBE_BLOCK):
        for sample in _probe_samples(alphas[start:start + _PROBE_BLOCK],
                                     grid, *kernels):
            alpha = sample.alpha
            proposal = (math.exp(-abs(alpha.real) ** 2 / (2 * std * std))
                        * math.exp(-abs(alpha.imag) ** 2 / (2 * std * std)))
            records.append(MagicProbeSample(
                alpha, sample.weight / proposal, sample.bloch,
                sample.h_axis_distance, sample.projection_fidelity))
    total = sum(r.weight for r in records)
    near = sum(r.weight for r in records if r.h_axis_distance <= 0.15)
    return MagicProbeResult(delta_sq, records,
                            near / total if total > 0 else 0.0, seed)
