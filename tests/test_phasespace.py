import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from octorail.phasespace import (GaussianState, SymplecticMap, apply,
                                 heterodyne_condition, homodyne_condition,
                                 identity_map, make_beamsplitter, make_cz,
                                 make_rotation, make_shear, make_squeeze,
                                 omega, shear_decomposition)
from octorail.phasespace import _embed

angles = st.floats(-math.pi, math.pi, allow_nan=False)
shears = st.floats(-5, 5, allow_nan=False)
squeezes = st.floats(0.1, 10, allow_nan=False)


def test_rotation_convention():
    # x-row of the rotation gives x_theta = x cos + p sin
    theta = 0.3
    m = make_rotation(theta).matrix
    assert m[0, 0] == pytest.approx(math.cos(theta))
    assert m[0, 1] == pytest.approx(math.sin(theta))


def test_squeeze_and_shear_conventions():
    assert np.allclose(make_squeeze(2.0).matrix, np.diag([2.0, 0.5]))
    assert np.allclose(make_shear(0.7).matrix, [[1, 0], [0.7, 1]])


def test_beamsplitter_convention():
    m = make_beamsplitter(math.pi / 4, 0, 1).matrix
    r = 1 / math.sqrt(2)
    assert np.allclose(m[:2, :2], [[r, -r], [r, r]])
    assert np.allclose(m[2:, 2:], m[:2, :2])


@given(angles, squeezes, shears)
def test_generators_are_symplectic(theta, t, sigma):
    assert make_rotation(theta).is_symplectic()
    assert make_squeeze(t).is_symplectic()
    assert make_shear(sigma).is_symplectic()


@given(angles, angles)
def test_rotation_composition(a, b):
    lhs = make_rotation(a) @ make_rotation(b)
    assert np.allclose(lhs.matrix, make_rotation(a + b).matrix)


@given(angles, squeezes)
def test_inverse(theta, t):
    m = make_rotation(theta) @ make_squeeze(t)
    assert np.allclose((m @ m.inverse()).matrix, np.eye(2), atol=1e-12)


@given(shears)
def test_shear_decomposition(sigma):
    a, t, b = shear_decomposition(sigma)
    composed = make_rotation(a) @ make_squeeze(t) @ make_rotation(b)
    assert np.allclose(composed.matrix, make_shear(sigma).matrix, atol=1e-9)


def test_cz():
    m = make_cz(1.0).matrix
    x = np.array([1.0, 2.0, 0.0, 0.0])  # (x1, x2, p1, p2)
    out = m @ x
    assert np.allclose(out, [1, 2, 2, 1])
    assert make_cz(1.0).is_symplectic()


@pytest.mark.parametrize("make, name, positive", [
    (make_rotation, "theta", False),
    (make_squeeze, "t", True),
    (make_shear, "sigma", False),
    (lambda v: make_beamsplitter(v, 0, 1), "phi", False),
    (make_cz, "g", False),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True],
                         ids=["nan", "inf", "-inf", "True"])
def test_constructors_reject_a_bad_parameter(make, name, positive, bad):
    condition = "finite and positive" if positive else "finite"
    with pytest.raises(ValueError,
                       match=f"^{name} must be {condition}, got {bad!r}$"):
        make(bad)


@pytest.mark.parametrize("make, name", [
    (lambda mode: make_rotation(0.3, mode, 2), "mode"),
    (lambda mode: make_squeeze(2.0, mode, 2), "mode"),
    (lambda mode: make_shear(0.3, mode, 2), "mode"),
    (lambda mode: make_beamsplitter(0.3, mode, 0, 2), "mode_j"),
    (lambda mode: make_cz(1.0, 0, mode, 2), "mode_k"),
    (lambda mode: homodyne_condition(GaussianState.vacuum(2), mode, 0.3, 0.0),
     "mode"),
    (lambda mode: heterodyne_condition(GaussianState.vacuum(2), mode,
                                       rng_or_values=(0.0, 0.0)), "mode"),
], ids=["rotation", "squeeze", "shear", "beamsplitter", "cz", "homodyne",
        "heterodyne"])
@pytest.mark.parametrize("bad, condition", [
    (True, "an integer"), (0.5, "an integer"), (-1, "non-negative"),
    (2, "below 2")], ids=["True", "0.5", "-1", "n_modes"])
def test_constructors_reject_a_bad_mode(make, name, bad, condition):
    with pytest.raises(ValueError,
                       match=f"^{name} must be {condition}, got {bad!r}$"):
        make(bad)


@pytest.mark.parametrize("n_modes, condition", [(0, "positive"),
                                                (1.5, "an integer")])
def test_constructors_reject_a_bad_mode_count(n_modes, condition):
    with pytest.raises(ValueError,
                       match=f"^n_modes must be {condition}, got {n_modes}$"):
        make_rotation(0.3, 0, n_modes)


def test_vacuum_physical():
    vac = GaussianState.vacuum(2)
    assert vac.is_physical()
    squeezed = apply(make_squeeze(3.0, 0, 2), vac)
    assert squeezed.is_physical()


def test_homodyne_forced_value():
    vac = GaussianState.vacuum(2)
    cz = apply(make_cz(1.0), vac)
    out, cond = homodyne_condition(cz, 0, 0.0, 0.8)
    assert out.value == 0.8
    assert cond.n_modes == 1
    assert cond.is_physical()
    # conditioning on x of mode 0 shifts p of mode 1 by g*x
    assert cond.mean[1] == pytest.approx(0.8 * 0.5 / 0.5, rel=1e-6)


def test_homodyne_sampled_reproducible():
    vac = GaussianState.vacuum(1)
    a = homodyne_condition(vac, 0, 0.3, np.random.default_rng(4))[0].value
    b = homodyne_condition(vac, 0, 0.3, np.random.default_rng(4))[0].value
    assert a == b


def test_heterodyne_condition_shapes():
    vac = GaussianState.vacuum(2)
    o1, o2, rest = heterodyne_condition(vac, 0, rng_or_values=(0.1, -0.2))
    assert (o1.value, o2.value) == (0.1, -0.2)
    assert rest.n_modes == 1
    assert rest.is_physical()


def test_symplectic_form_invariance():
    m = (make_rotation(0.4) @ make_shear(1.2) @ make_squeeze(0.7)).matrix
    assert np.allclose(m @ omega(1) @ m.T, omega(1))


def test_identity_map():
    assert np.array_equal(identity_map(3).matrix, np.eye(6))


def test_embed_places_the_block_in_the_identity():
    """Rows and columns of the embedded modes hold the block, in the order
    the modes are given; the rest is the identity."""
    rng = np.random.default_rng(3)
    for modes, n_modes in (((0,), 1), ((2,), 4), ((1, 3), 4), ((3, 0), 5)):
        k = len(modes)
        local = rng.normal(size=(2 * k, 2 * k))
        idx = list(modes) + [m + n_modes for m in modes]
        want = np.eye(2 * n_modes)
        for ia in idx:
            want[ia] = want[:, ia] = 0.0
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                want[ia, ib] = local[a, b]
        assert np.array_equal(_embed(local, modes, n_modes), want)
