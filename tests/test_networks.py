import json

import numpy as np
import pytest

from octorail.exact import ExactCoeff, ExactMatrix
from octorail import networks
from octorail.networks import (EIGHTSPLITTER_SIGNS, build_network,
                               cancel_layer, check_layer_commutation,
                               eightsplitter_sign_form, layer_matrix,
                               verify_eightsplitter, x_block)


def test_level_structure():
    for level, n_modes in ((0, 2), (1, 4), (2, 8)):
        net = build_network(level)
        assert net.n_modes == n_modes
        assert len(net.layers) == level + 1
        for layer in net.layers:
            assert len(layer) == n_modes // 2


@pytest.mark.parametrize("level, message", [
    (True, "level must be an integer, got True"),
    (1.5, "level must be an integer, got 1.5"),
    ("2", "level must be an integer, got '2'"),
    (-1, "level must be non-negative, got -1"),
])
def test_build_network_rejects_a_bad_level(level, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_network(level)


def test_eight_mode_transfer_matrix_rows():
    report = verify_eightsplitter()
    assert [r["pass"] for r in report] == [True] * 8


def test_default_sign_table_is_read_at_call_time(monkeypatch):
    from octorail import networks

    signs = [list(r) for r in EIGHTSPLITTER_SIGNS]
    signs[4][0] = -signs[4][0]
    monkeypatch.setattr(networks, "EIGHTSPLITTER_SIGNS",
                        tuple(tuple(r) for r in signs))
    report = verify_eightsplitter()
    assert [r["pass"] for r in report] == [True] * 4 + [False] + [True] * 3
    assert report[4]["name"] == "S matrix row 5"


def test_transfer_matrix_entries_exact():
    s = x_block(build_network(2))
    for row, ref in zip(s.rows, EIGHTSPLITTER_SIGNS):
        for entry, sign in zip(row, ref):
            assert entry == ExactCoeff.from_half_power(sign, 3)


def _composed_oracle(network):
    """The layer product, composed afresh on every call."""
    out = ExactMatrix.identity(network.n_modes)
    for layer in network.layers:
        out = layer_matrix(layer, network.n_modes) @ out
    return out


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_x_block_is_the_layer_product(level):
    net = build_network(level)
    assert x_block(net) == _composed_oracle(net)
    assert networks.x_rows(net) == tuple(map(tuple, x_block(net).rows))


def test_x_block_returns_a_matrix_the_caller_may_modify():
    net = build_network(2)
    first = x_block(net)
    first.rows[0][0] = ExactCoeff(7)
    first.rows[1] = [ExactCoeff(0)] * 8
    first.rows.append([ExactCoeff(1)] * 8)
    second = x_block(net)
    assert second is not first
    assert second == _composed_oracle(net)
    assert second.shape == (8, 8)


def test_sign_form_is_the_composed_matrix_times_2_sqrt2():
    h = eightsplitter_sign_form()
    assert h.dtype == np.int64
    assert h.tolist() == [list(r) for r in EIGHTSPLITTER_SIGNS]
    s = x_block(build_network(2))
    for row, hrow in zip(s.rows, h.tolist()):
        for entry, sign in zip(row, hrow):
            assert entry == ExactCoeff.from_half_power(sign, 3)
    with pytest.raises(ValueError):
        h[0, 0] = 0


@pytest.mark.parametrize("bad", [ExactCoeff.from_half_power(1, 2),
                                 ExactCoeff.from_half_power(2, 3),
                                 ExactCoeff(0)])
def test_sign_form_rejects_other_entries(monkeypatch, bad):
    rows = [list(r) for r in networks.eightsplitter_matrix()]
    rows[3][5] = bad
    monkeypatch.setattr(networks, "eightsplitter_matrix",
                        lambda: tuple(map(tuple, rows)))
    networks.eightsplitter_sign_form.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"S\[4\]\[6\]"):
            eightsplitter_sign_form()
    finally:
        networks.eightsplitter_sign_form.cache_clear()


def test_transfer_matrix_is_orthogonal():
    s = x_block(build_network(2))
    f = s.to_float()
    assert np.allclose(f @ f.T, np.eye(8), atol=1e-12)


def test_layer_commutation_all_levels():
    for level in (0, 1, 2):
        assert check_layer_commutation(build_network(level))["all_commute"]


def test_cancel_outer_layer_reduces_to_two_quads():
    net = build_network(2)
    # equal angles on every pair of the mode-distance-4 layer
    angles = [0.0, 0.1, 0.2, 0.3, 0.0, 0.1, 0.2, 0.3]
    red = cancel_layer(net, angles)
    assert red.removed_tag == "ORL"
    assert red.components == ((0, 1, 2, 3), (4, 5, 6, 7))
    # each component is isomorphic to the level-1 network
    quad = build_network(1)
    first = tuple(tuple(p for p in layer if p[0] < 4)
                  for layer in red.reduced.layers)
    second = tuple(tuple((a - 4, b - 4) for a, b in layer if a >= 4)
                   for layer in red.reduced.layers)
    assert first == quad.layers
    assert second == quad.layers


def test_cancellation_recombination_rule():
    net = build_network(2)
    angles = [0.0] * 8
    red = cancel_layer(net, angles)
    # removed pairs (j, k): outcomes (m_j + m_k)/sqrt2 and (m_k - m_j)/sqrt2
    rec = red.recombination
    half = ExactCoeff.from_half_power(1, 1)
    pair = next(l for l, t in zip(net.layers, net.level_tags)
                if t == red.removed_tag)[0]
    j, k = pair
    assert rec.rows[j][j] == half and rec.rows[j][k] == half
    assert rec.rows[k][j] == -half and rec.rows[k][k] == half
    # the rule composed with the removed layer restores the full transfer
    removed = next(layer_matrix(l, 8) for l, t
                   in zip(net.layers, net.level_tags) if t == red.removed_tag)
    assert rec @ removed == ExactMatrix.identity(8)


def test_cancel_layer_rejects_unequal_angles():
    net = build_network(2)
    with pytest.raises(ValueError, match="offending pair"):
        cancel_layer(net, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])


def test_network_json_roundtrip_fields():
    doc = json.loads(build_network(2).to_json())
    assert doc["n_modes"] == 8
    tags = [layer["tag"] for layer in doc["layers"]]
    assert tags == ["DRL", "QRL", "ORL"]
    assert all(len(layer["pairs"]) == 4 for layer in doc["layers"])
