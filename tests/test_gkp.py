import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octorail.gates import (FOURIER, DegenerateMeasurementError,
                            teleported_gate_v)
from octorail.gkp import (QUNAUGHT_SPACING, SQRT_PI, Encoding, Grid,
                          GridWavefunction, SqueezingLevel, code_projection,
                          custom_encoding,
                          db_conversion, decompose_rpr, default_grid,
                          fidelity, fine_grid, fourier_wavefunction,
                          heterodyne_magic_probe,
                          hexagonal_encoding, knill_oracle, knill_step,
                          logical_action, logical_amplitudes,
                          magic_probe_single, make_gaussian_wavepacket,
                          make_qunaught, p_error, p_error_tail_oracle,
                          qunaught_amplitude, rectangular_encoding,
                          square_encoding, transform_angles, transpose_map)
from octorail.gkp import (_bell_amplitude, _code_masks, _damping_kernel,
                          _half_step_points, _interpolant, _probe_kernels,
                          _x_marginal)
from octorail.phasespace import (SymplecticMap, make_rotation, make_shear,
                                 make_squeeze)

LAM = np.diag([1.0, -1.0])


def identity_deviation(theta1, theta2, encoding):
    phi1, phi2 = transform_angles(theta1, theta2, encoding)
    lhs = teleported_gate_v(phi1, phi2).matrix
    u = encoding.u_g.matrix
    rhs = (LAM @ u @ LAM @ teleported_gate_v(theta1, theta2).matrix
           @ np.linalg.inv(u))
    return float(np.abs(lhs - rhs).max())


# --------------------------------------------------------------------------
# squeezing conversions and error formula
# --------------------------------------------------------------------------

def test_db_conversion_known_values():
    assert db_conversion(0.1, "to-db").db == pytest.approx(10.0)
    assert db_conversion(10.0, "from-db").delta_sq == pytest.approx(0.1)
    assert db_conversion(9.75, "from-db").delta_sq \
        == pytest.approx(0.10593, abs=1e-5)
    assert db_conversion(1.0, "to-db").db == 0.0


@given(st.floats(0.001, 10, allow_nan=False))
def test_db_conversion_involution(delta_sq):
    level = db_conversion(delta_sq, "to-db")
    back = db_conversion(level.db, "from-db")
    assert back.delta_sq == pytest.approx(delta_sq, rel=1e-12)


def test_db_conversion_errors():
    with pytest.raises(ValueError):
        db_conversion(-1.0, "to-db")
    with pytest.raises(ValueError):
        db_conversion(0.1, "sideways")


_NOT_FINITE_OR_BOOL = [math.nan, math.inf, -math.inf, True]
_BAD_IDS = ["nan", "inf", "-inf", "True"]


@pytest.mark.parametrize("bad", _NOT_FINITE_OR_BOOL, ids=_BAD_IDS)
def test_db_conversion_rejects_a_bad_value(bad):
    with pytest.raises(ValueError, match="^delta_sq must be finite and "
                                         f"positive, got {bad!r}$"):
        db_conversion(bad, "to-db")
    with pytest.raises(ValueError, match=f"^db must be finite, got {bad!r}$"):
        db_conversion(bad, "from-db")
    with pytest.raises(ValueError, match=f"^db must be finite, got {bad!r}$"):
        SqueezingLevel(0.1, bad)


@pytest.mark.parametrize("bad", _NOT_FINITE_OR_BOOL + [0.0, -1.3],
                         ids=_BAD_IDS + ["0", "negative"])
def test_rectangular_encoding_rejects_a_bad_alpha(bad):
    with pytest.raises(ValueError, match="^alpha must be finite and "
                                         f"positive, got {bad!r}$"):
        rectangular_encoding(bad)


def test_p_error_value():
    assert p_error(0.1) == pytest.approx(7.8e-5, rel=0.01)


def test_p_error_monotone_below_02():
    values = [p_error(d) for d in np.linspace(0.01, 0.2, 40)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_p_error_against_tail_oracle():
    for delta_sq in np.linspace(0.02, 0.15, 14):
        ratio = p_error(delta_sq) / p_error_tail_oracle(delta_sq)
        assert 0.5 <= ratio <= 2.0
    assert p_error(0.1) / p_error_tail_oracle(0.1) == pytest.approx(1, abs=0.25)


def test_p_error_domain():
    """Both formulas refuse, in the argument policy's form, whatever is not
    a real number in (0, 1): a string, a bool and NaN included."""
    cases = [(0.0, "finite and positive"), ("0.1", "finite and positive"),
             (True, "finite and positive"), (math.nan, "finite and positive"),
             (1.0, "below 1"), (1.5, "below 1")]
    for function in (p_error, p_error_tail_oracle):
        for delta_sq, condition in cases:
            with pytest.raises(ValueError) as exc:
                function(delta_sq)
            assert str(exc.value) == (f"delta_sq must be {condition}, "
                                      f"got {delta_sq!r}")


# --------------------------------------------------------------------------
# encodings
# --------------------------------------------------------------------------

def test_square_encoding_identity():
    assert np.array_equal(square_encoding().u_g.matrix, np.eye(2))


def test_rectangular_unit_alpha():
    enc = rectangular_encoding(SQRT_PI)
    assert np.allclose(enc.u_g.matrix, np.eye(2))


def test_hexagonal_encoding_matrix():
    expected = (make_squeeze(3 ** 0.25)
                @ make_rotation(-math.pi / 4)).matrix
    assert np.allclose(hexagonal_encoding().u_g.matrix, expected)


def test_lattice_cell_area():
    for enc in (square_encoding(), rectangular_encoding(0.7),
                hexagonal_encoding(),
                custom_encoding(make_rotation(0.3) @ make_shear(1.1))):
        assert abs(np.linalg.det(enc.lattice_basis)) \
            == pytest.approx(math.pi, rel=1e-12)


def test_encoding_requires_symplectic():
    with pytest.raises(ValueError):
        custom_encoding(SymplecticMap(1, np.diag([2.0, 1.0])))


# --------------------------------------------------------------------------
# transpose map and factorization
# --------------------------------------------------------------------------

def test_transpose_fixes_rotations_inverts_squeezes():
    theta = 0.6
    assert np.allclose(transpose_map(make_rotation(theta)).matrix,
                       make_rotation(theta).matrix)
    assert np.allclose(transpose_map(make_squeeze(1.7)).matrix,
                       make_squeeze(1 / 1.7).matrix)
    sigma = 0.9
    assert np.allclose(transpose_map(make_shear(sigma)).matrix,
                       make_shear(sigma).matrix)


def test_transpose_is_involution():
    m = make_rotation(0.4) @ make_squeeze(1.3) @ make_shear(-0.8)
    assert np.allclose(transpose_map(transpose_map(m)).matrix, m.matrix)


@settings(deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
       st.floats(0.2, 5), st.floats(-3, 3))
def test_decompose_rpr_reconstructs(a, b, t, sigma):
    m = make_rotation(a) @ make_squeeze(t) @ make_shear(sigma) \
        @ make_rotation(b)
    w1, lam, w2 = decompose_rpr(m)
    assert -math.pi / 2 < w1 <= math.pi / 2
    rebuilt = (make_rotation(-w1) @ make_shear(lam)
               @ make_rotation(-w2)).matrix
    assert np.abs(rebuilt - m.matrix).max() < 1e-8


# --------------------------------------------------------------------------
# angle transforms
# --------------------------------------------------------------------------

def test_square_encoding_angles_are_identity_action():
    dev = identity_deviation(0.0, math.pi / 2, square_encoding())
    assert dev < 1e-10


def test_hexagonal_encoding_angles():
    dev = identity_deviation(-math.pi / 4, math.pi / 4, hexagonal_encoding())
    assert dev < 1e-10


def test_branch_case():
    enc = hexagonal_encoding()
    _, _, w2 = decompose_rpr(enc.u_g)
    assert identity_deviation(-w2, -w2 + 0.9, enc) < 1e-10


def test_degenerate_angles_raise():
    with pytest.raises(DegenerateMeasurementError):
        transform_angles(0.3, 0.3 + math.pi, hexagonal_encoding())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_transform_angles_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError,
                       match=f"^theta1 must be finite, got {bad}$"):
        transform_angles(bad, 1.0, square_encoding())
    with pytest.raises(ValueError, match="^theta2 must be finite, got "):
        transform_angles(1.0, bad, hexagonal_encoding())


def test_returned_angles_are_folded():
    phi1, phi2 = transform_angles(1.2, 2.9, hexagonal_encoding())
    for phi in (phi1, phi2):
        assert -math.pi / 2 < phi <= math.pi / 2


# --------------------------------------------------------------------------
# logical action
# --------------------------------------------------------------------------

def test_fourier_is_logical_hadamard_on_square():
    action = logical_action(FOURIER, square_encoding())
    assert action.preserves_lattice and action.clifford_label == "H"


def test_fourier_fourth_power_is_identity():
    f4 = FOURIER @ FOURIER @ FOURIER @ FOURIER
    assert logical_action(f4, square_encoding()).clifford_label == "I"


def test_shear_minus_one_squared_is_identity():
    p = make_shear(-1.0)
    assert logical_action(p, square_encoding()).clifford_label == "P"
    assert logical_action(p @ p, square_encoding()).clifford_label == "I"


def test_u_ut_rectangular_is_logical_identity():
    enc = rectangular_encoding(1.3)
    m = enc.u_g @ transpose_map(enc.u_g)
    assert logical_action(m, enc).clifford_label == "I"


def test_u_ut_hexagonal_is_logical_hadamard():
    enc = hexagonal_encoding()
    m = enc.u_g @ transpose_map(enc.u_g)
    assert logical_action(m, enc).clifford_label == "H"


def test_non_clifford_reports_fractional_part():
    action = logical_action(make_shear(0.5), square_encoding())
    assert not action.preserves_lattice
    assert action.fractional_part is not None
    assert np.abs(action.fractional_part).max() > 0.1


# --------------------------------------------------------------------------
# grid simulator
# --------------------------------------------------------------------------

def test_default_grid_geometry():
    g = default_grid()
    assert g.dx == pytest.approx(SQRT_PI / 16)
    assert g.axis[-1] == pytest.approx(6 * SQRT_PI)
    assert g.size == 193


def test_qunaught_norm_and_resolution_guard():
    qn = make_qunaught(0.05)
    assert qn.norm() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        make_qunaught(0.005)  # peaks unresolved on the default grid


@pytest.mark.parametrize("delta_sq", [float("nan"), math.inf, 0.0, -0.05,
                                      True])
def test_qunaught_rejects_a_delta_that_is_not_finite_and_positive(delta_sq):
    with pytest.raises(ValueError, match="finite and positive"):
        make_qunaught(delta_sq)


def test_qunaught_fourier_invariance():
    qn = make_qunaught(0.05)
    overlap = abs(np.vdot(qn.amplitudes,
                          fourier_wavefunction(qn).amplitudes)) * qn.grid.dx
    assert overlap > 0.99


def test_qunaught_peak_spacing():
    qn = make_qunaught(0.05)
    dens = np.abs(qn.amplitudes) ** 2
    peaks = [qn.grid.axis[i] for i in range(1, qn.grid.size - 1)
             if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]
             and dens[i] > 1e-4 * dens.max()]
    spacing = np.diff(peaks)
    assert np.allclose(spacing, math.sqrt(2 * math.pi), atol=qn.grid.dx)


def _qunaught_loop(x, delta_sq):
    """Reference for qunaught_amplitude: the damped peaks added one at a
    time."""
    beta = math.asinh(delta_sq)
    th, ch = math.tanh(beta), math.cosh(beta)
    x = np.asarray(x, dtype=float)
    kmax = int(np.ceil(np.abs(x).max() / QUNAUGHT_SPACING)) + 2
    out = np.zeros_like(x)
    for k in range(-kmax, kmax + 1):
        mu = k * QUNAUGHT_SPACING
        out += (math.exp(-0.5 * th * mu * mu)
                * np.exp(-(x - mu / ch) ** 2 / (2 * th)))
    return out


@pytest.mark.parametrize("make_grid", [default_grid, fine_grid])
def test_qunaught_amplitude_equals_peak_loop(make_grid):
    """All peaks at once add up in the loop's order: bit for bit on the
    axis, the half-step points and, at three levels, the 2-D rotated
    coordinates the Bell amplitude evaluates (several slabs of points)."""
    grid = make_grid()
    axis, points = grid.axis, _half_step_points(grid)
    rotated = (axis[:, None] + axis[None, :]) / math.sqrt(2)
    for db in np.arange(5.0, 20.25, 0.25):
        delta_sq = 10 ** (-db / 10)
        cases = [axis, points] + ([rotated] if db in (7, 10, 13) else [])
        for x in cases:
            assert np.array_equal(qunaught_amplitude(x, delta_sq),
                                  _qunaught_loop(x, delta_sq)), (db, x.shape)


@pytest.mark.parametrize("name", ["x0", "p0", "variance"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussian_wavepacket_rejects_non_finite_arguments(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make_gaussian_wavepacket(default_grid(), **{name: bad})


def test_wavefunction_normalization_invariant():
    g = default_grid()
    wf = GridWavefunction(g, np.exp(-g.axis ** 2)).normalized()
    assert wf.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        GridWavefunction(g, np.zeros(5))


# --------------------------------------------------------------------------
# teleportation-based error correction
# --------------------------------------------------------------------------

def test_knill_step_zero_outcomes_projects_onto_code():
    # the qunaught Bell pair teleports the input through a square-code
    # error correction; code states are fixed points of the channel, so a
    # second step at zero outcomes leaves the first output unchanged
    qn = make_qunaught(0.05)
    out = knill_step(qn, 0.05, forced_outcomes=(0.0, 0.0)).output
    assert fidelity(out, knill_oracle(qn, 0.05, 0.0, 0.0)) > 0.999
    again = knill_step(out, 0.05, forced_outcomes=(0.0, 0.0)).output
    assert fidelity(again, out) > 0.999


def test_knill_step_matches_kraus_oracle():
    qn = make_qunaught(0.05)
    res = knill_step(qn, 0.05, forced_outcomes=(0.3, -0.2))
    oracle = knill_oracle(qn, 0.05, 0.3, -0.2)
    assert fidelity(res.output, oracle) > 1 - 1e-4


def test_knill_step_half_grid_outcome_on_fine_grid():
    grid = fine_grid()
    qn = make_qunaught(0.05, grid)
    res = knill_step(qn, 0.05, forced_outcomes=(SQRT_PI / 2, 0.0))
    oracle = knill_oracle(qn, 0.05, SQRT_PI / 2, 0.0)
    assert fidelity(res.output, oracle) > 1 - 1e-6


def test_knill_step_vacuum_grows_comb():
    broad = make_gaussian_wavepacket(default_grid(), variance=4.0)
    out = knill_step(broad, 0.05, forced_outcomes=(0.0, 0.0)).output
    dens = np.abs(out.amplitudes) ** 2
    axis = out.grid.axis
    teeth = dens[np.isclose(np.remainder(axis / SQRT_PI, 1), 0, atol=1e-9)]
    middles = dens[np.isclose(np.remainder(axis / SQRT_PI - 0.5, 1), 0,
                              atol=1e-9)]
    assert teeth.max() > 10 * middles.max()


def test_knill_step_sampled_outcomes_reproducible():
    qn = make_qunaught(0.05)
    a = knill_step(qn, 0.05, seed=5)
    b = knill_step(qn, 0.05, seed=5)
    assert a.outcomes == b.outcomes
    # NumPy integers are seeds too
    assert knill_step(qn, 0.05, seed=np.uint8(5)).outcomes == a.outcomes
    assert np.array_equal(a.output.amplitudes, b.output.amplitudes)


@pytest.mark.parametrize("seed, outcomes", [
    pytest.param(5, (2.7694591420398686, -1.7632701521961611), id="seed5"),
    pytest.param(11, (-3.5449077018110318, 6.171445532686564), id="seed11"),
])
def test_knill_step_sampled_outcomes_pinned(seed, outcomes):
    # seeded (m1, m2) pinned: the marginal's weights may move only in
    # rounding, which must not move a draw
    qn = make_qunaught(0.05)
    assert knill_step(qn, 0.05, seed=seed).outcomes == outcomes


@pytest.mark.parametrize("delta_sq", [True, "0.05", float("nan"), math.inf,
                                      -math.inf, 0.0, -0.05])
@pytest.mark.parametrize("outcomes", [(0.3, -0.2), None],
                         ids=["forced", "sampled"])
def test_knill_step_rejects_a_bad_delta(delta_sq, outcomes):
    """A Delta^2 that is a bool, not real, not finite or not positive raises
    a ValueError that names it, instead of a NumPy warning, a NaN
    probability or a silent Delta^2 = 1."""
    qn = make_qunaught(0.05)
    with pytest.raises(ValueError, match="delta_sq must be finite and "
                                         "positive"):
        knill_step(qn, delta_sq, forced_outcomes=outcomes, seed=0)


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer"), (2.0, "seed must be an integer"),
    ("3", "seed must be an integer"), (-1, "seed must be non-negative")])
def test_knill_step_rejects_a_bad_seed(seed, message):
    qn = make_qunaught(0.05)
    with pytest.raises(ValueError, match=message):
        knill_step(qn, 0.05, seed=seed)


def _x_marginal_loop_row(input_at, axis, delta_sq, i):
    """Weight of the x outcome axis[i] as the squared norm of the full
    conditional block at that outcome."""
    s2 = math.sqrt(2)
    u = (axis[i] + axis) / s2
    v = (axis - axis[i]) / s2
    block = input_at(u)[:, None] * _bell_amplitude(v, axis[None, :], delta_sq)
    return (np.abs(block) ** 2).sum()


@pytest.mark.parametrize("make_grid, n_rows", [
    pytest.param(default_grid, 16, id="default_grid"),
    pytest.param(fine_grid, 8, id="fine_grid"),
])
def test_x_marginal_matches_outcome_loop(make_grid, n_rows):
    """The marginal gathered from two 1-D tables equals the per-outcome
    block sums on evenly spread rows and on the heaviest rows."""
    grid = make_grid()
    axis = grid.axis
    delta_sq = 0.05
    for wf in (make_qunaught(delta_sq, grid),
               make_gaussian_wavepacket(grid, x0=1.3, p0=-0.4, variance=0.8)):
        input_at = _interpolant(wf)
        weights = _x_marginal(input_at, grid, delta_sq)
        assert weights.shape == (grid.size,)
        rows = np.unique(np.r_[
            np.linspace(0, grid.size - 1, n_rows // 2).astype(int),
            np.argsort(weights)[-n_rows // 2:]])
        assert len(rows) >= n_rows
        loop = np.array([_x_marginal_loop_row(input_at, axis, delta_sq, i)
                         for i in rows])
        assert (np.abs(weights[rows] - loop).max()
                <= 1e-12 * weights.max())


# --------------------------------------------------------------------------
# heterodyne magic probe
# --------------------------------------------------------------------------

def test_probe_zero_outcome_is_not_a_pauli_eigenstate():
    sample = magic_probe_single(0.02, 0.0 + 0.0j)
    bx, by, bz = sample.bloch
    assert abs(bz) < 0.95   # not a Z eigenstate
    assert abs(bx) < 0.95   # not an X eigenstate
    assert sample.h_axis_distance < 0.15


def test_probe_outputs_stay_near_code_manifold():
    for alpha in (0.0 + 0.0j, 0.2 + 0.1j, -0.6 + 0.4j):
        sample = magic_probe_single(0.05, alpha)
        assert sample.projection_fidelity > 0.99



@pytest.mark.parametrize("delta_sq, seed", [(0.05, 3), (0.08, 11),
                                            (10 ** -1.2, 2024)])
def test_heterodyne_probe_equals_single_sample_calls(delta_sq, seed):
    """The probe computes its kernels once and evaluates its samples
    together; at every sample count, every field must equal what a fresh
    per-sample magic_probe_single call gives, exactly."""
    for samples in (4, 1, 3, 8, 30):
        result = heterodyne_magic_probe(delta_sq, samples, seed)
        rng = np.random.default_rng(seed)
        std = math.sqrt((1 / (2 * delta_sq) + 0.5) / 2)
        assert len(result.samples) == samples
        for record in result.samples:
            alpha = complex(rng.normal(0, std), rng.normal(0, std))
            single = magic_probe_single(delta_sq, alpha)
            proposal = (math.exp(-abs(alpha.real) ** 2 / (2 * std * std))
                        * math.exp(-abs(alpha.imag) ** 2 / (2 * std * std)))
            assert record.alpha == single.alpha == alpha
            assert record.weight == single.weight / proposal
            assert record.bloch == single.bloch
            assert record.h_axis_distance == single.h_axis_distance
            assert record.projection_fidelity == single.projection_fidelity


def _probe_oracle(alpha, grid, bell, damping):
    """One probe sample the long way: the conditional state from a complex
    product with the Bell kernel, and its damped projection from the full
    damping kernel applied to the ideal code projection."""
    axis = grid.axis
    coherent = (math.pi ** -0.25
                * np.exp(-(axis - math.sqrt(2) * alpha.real) ** 2 / 2
                         + 1j * math.sqrt(2) * alpha.imag * axis))
    wf = GridWavefunction(grid, np.conj(coherent) @ bell * grid.dx)
    weight = wf.norm() ** 2
    wf = wf.normalized()
    c0, c1 = logical_amplitudes(wf)
    norm = abs(c0) ** 2 + abs(c1) ** 2
    bloch = np.array([2 * (np.conj(c0) * c1).real, 2 * (np.conj(c0) * c1).imag,
                      abs(c0) ** 2 - abs(c1) ** 2]) / norm
    proj = GridWavefunction(grid, damping @ code_projection(wf).amplitudes)
    return weight, bloch, fidelity(wf, proj)


@pytest.mark.parametrize("make_grid", [default_grid, fine_grid])
def test_probe_comb_shortcut_matches_full_damping_kernel(make_grid):
    """The closed forms over the two damped combs give the weight, Bloch
    vector and projection fidelity of the full-kernel computation."""
    grid = make_grid()
    axis = grid.axis
    rng = np.random.default_rng(19)
    for db in range(7, 14):
        delta_sq = 10 ** (-db / 10)
        bell = _bell_amplitude(axis, axis[None, :], delta_sq)
        damping = _damping_kernel(math.asinh(delta_sq), axis, axis)
        std = math.sqrt((1 / (2 * delta_sq) + 0.5) / 2)
        for re, im in rng.normal(0, std, size=(4, 2)):
            alpha = complex(re, im)
            sample = magic_probe_single(delta_sq, alpha, grid)
            weight, bloch, pf = _probe_oracle(alpha, grid, bell, damping)
            assert abs(sample.projection_fidelity - pf) <= 1e-12, (db, alpha)
            assert sample.weight == pytest.approx(weight, rel=1e-12)
            assert np.abs(np.array(sample.bloch) - bloch).max() <= 1e-12


def test_probe_raises_on_a_vanishing_conditional_state():
    """Far off the grid the coherent state underflows to zero on every
    point; the probe says so instead of returning NaN."""
    for alpha in (40 + 0j, -40 + 0j):
        with pytest.raises(ValueError,
                           match="cannot normalize the zero wavefunction"):
            magic_probe_single(0.05, alpha)


@pytest.mark.parametrize("alpha", [complex(math.nan, 0), complex(0, math.inf),
                                   complex(-math.inf, 1)])
def test_probe_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        magic_probe_single(0.05, alpha)


def test_heterodyne_probe_validates_arguments():
    for delta_sq in (True, math.nan, math.inf, 0.0, -0.05, "0.05"):
        with pytest.raises(ValueError, match="delta_sq must be finite"):
            heterodyne_magic_probe(delta_sq, 2, 1)
    for name in ("samples", "seed"):
        args = {"delta_sq": 0.05, "samples": 2, "seed": 1}
        for bad in (True, 2.0, 2.5, "3", None):
            with pytest.raises(ValueError, match=f"{name} must be an "
                                                 "integer"):
                heterodyne_magic_probe(**{**args, name: bad})
    with pytest.raises(ValueError, match="samples must be positive"):
        heterodyne_magic_probe(0.05, 0, 1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        heterodyne_magic_probe(0.05, 2, -1)
    # NumPy integers are integers, and are echoed as Python ints
    fixed = heterodyne_magic_probe(0.05, np.uint8(3), np.int16(7))
    assert fixed == heterodyne_magic_probe(0.05, 3, 7)
    assert type(fixed.seed) is int

@pytest.mark.parametrize("make_grid", [default_grid, fine_grid])
def test_probe_bell_kernel_matches_direct_form(make_grid):
    """The kernel gathered from one 1-D qunaught table equals the Bell
    amplitude evaluated on the full argument grids."""
    grid = make_grid()
    axis = grid.axis
    for db in range(7, 14):
        delta_sq = 10 ** (-db / 10)
        direct = _bell_amplitude(axis, axis[None, :], delta_sq)
        bell, _ = _probe_kernels(delta_sq, grid)
        assert bell.shape == direct.shape
        assert (np.abs(bell - direct).max()
                <= 1e-12 * np.abs(direct).max()), db


@pytest.mark.parametrize("make_grid", [default_grid, fine_grid])
def test_code_masks_cached_and_read_only(make_grid):
    grid = make_grid()
    masks = _code_masks(grid)
    assert _code_masks(Grid(grid.dx, grid.half_steps)) is masks
    ratio = grid.axis / SQRT_PI
    for j, mask in enumerate(masks):
        r = np.remainder(ratio - j, 2.0)
        fresh = (np.isclose(r, 0.0, atol=1e-9)
                 | np.isclose(r, 2.0, atol=1e-9))
        assert np.array_equal(mask, fresh)
        assert mask.any()
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = not mask[0]


def test_probe_symmetric_under_outcome_sign_flip():
    a = magic_probe_single(0.05, 0.37 - 0.21j)
    b = magic_probe_single(0.05, -0.37 + 0.21j)
    assert a.h_axis_distance == pytest.approx(b.h_axis_distance, abs=1e-12)
    assert a.weight == pytest.approx(b.weight, rel=1e-9)


def test_heterodyne_probe_summary():
    result = heterodyne_magic_probe(0.05, 30, seed=3)
    assert len(result.samples) == 30
    assert 0 <= result.fraction_near_h_axis <= 1
    again = heterodyne_magic_probe(0.05, 30, seed=3)
    assert again.fraction_near_h_axis == result.fraction_near_h_axis


def test_logical_amplitudes_pick_comb_teeth():
    g = default_grid()
    amp = np.zeros(g.size)
    amp[np.isclose(np.remainder(g.axis / SQRT_PI, 2), 0, atol=1e-9)
        | np.isclose(np.remainder(g.axis / SQRT_PI, 2), 2, atol=1e-9)] = 1.0
    c0, c1 = logical_amplitudes(GridWavefunction(g, amp))
    assert c1 == 0 and c0.real > 0
