import dataclasses
import math

import numpy as np
import pytest

from octorail import memory, surface
from octorail.memory import NoiseModel, _corrections, _defects


def test_surface_aliases_are_the_memory_functions():
    """octorail.surface names three Monte Carlo functions for code that
    reads them there.  A tracer that swaps a function for a wrapper finds
    its aliases by identity, so each must be memory's own object: a
    wrapper defined in surface would hide the calls from it."""
    for name in ("memory_experiment", "decode_matching", "_flip_weights"):
        assert getattr(surface, name) is getattr(memory, name)


@pytest.mark.parametrize("db", [3.0, 7.0, 9.75, 11, 13.0, 40.0])
def test_noise_model_from_db(db):
    """Each teleportation hop adds variance 2 * (delta^2 / 2) = delta^2: a
    data qubit takes two hops per round, a readout one."""
    delta_sq = 10 ** (-db / 10)
    noise = NoiseModel.from_db(db)
    assert noise.sigma == pytest.approx(math.sqrt(2 * delta_sq), rel=1e-15)
    assert noise.sigma_m == pytest.approx(math.sqrt(delta_sq), rel=1e-15)
    with pytest.raises(dataclasses.FrozenInstanceError):
        noise.sigma = 0.0


@pytest.mark.parametrize("db", [0.0, -3.0, math.nan, math.inf, True, "7"])
def test_noise_model_rejects_bad_levels(db):
    with pytest.raises(ValueError,
                       match="squeezing_db must be finite and positive, got "):
        NoiseModel.from_db(db)


@pytest.mark.parametrize("distance, rounds", [(3, 1), (5, 3), (7, 2)])
def test_noise_columns_follow_the_row_layout(distance, rounds):
    """sigma on the rounds x qubits columns, then sigma_m on the rounds x
    stabilizers readout columns; the decoding graph reads its weight row
    in the same layout."""
    dg = memory._decoding_graph(distance, rounds)
    assert dg.rounds == rounds
    n_stabs = (distance * distance - 1) // 2
    scale = NoiseModel(0.25, 0.5).columns(dg)
    assert scale.tolist() == ([0.25] * (rounds * distance * distance)
                              + [0.5] * (rounds * n_stabs))
    assert dg.data_col.max() == len(scale) + len(dg.anchor_col) - 1


@pytest.mark.parametrize("distance, rounds", [(3, 1), (3, 4), (5, 2)])
def test_defects_equal_a_loop_over_rounds(distance, rounds):
    """_defects on random flips: a stabilizer's syndrome bit XORs its
    members' errors and its readout flip, the final readout is noiseless,
    and a defect is a change from the layer before; the true parity is
    that of the final errors on the left-column cut."""
    stabs, _, cut = memory._rotated_layout(distance)
    n_q, n_s = distance * distance, len(stabs)
    dg = memory._decoding_graph(distance, rounds)
    flips = np.random.default_rng(rounds).random(
        (40, rounds * (n_q + n_s))) < 0.15
    grid, parity = _defects(flips, dg)
    assert grid.shape == (40, (rounds + 1) * n_s) and grid.dtype == bool
    for row, got, bit in zip(flips.tolist(), grid.tolist(), parity.tolist()):
        errors, before, want = [0] * n_q, [0] * n_s, []
        for layer in range(rounds + 1):
            if layer < rounds:
                for q in range(n_q):
                    errors[q] ^= row[layer * n_q + q]
            now = [sum(errors[q] for q in members) % 2
                   ^ (row[rounds * n_q + layer * n_s + s] if layer < rounds
                      else 0)
                   for s, members in enumerate(stabs)]
            want += [a != b for a, b in zip(now, before)]
            before = now
        assert got == want
        assert bit == sum(errors[q] for q in cut) % 2


def test_corrections_decode_each_trial_as_a_slice_of_its_own(monkeypatch):
    """One correction parity per trial with defects, in order, equal to
    what each trial decoded alone gives; trials that share a slice do not
    see one another's weights."""
    distance, rounds = 5, 3
    dg = memory._decoding_graph(distance, rounds)
    scale = NoiseModel.from_db(9.0).columns(dg)
    rng = np.random.default_rng(12)
    flips, _ = memory.gkp_bin(rng.standard_normal((200, len(scale)))
                              * scale)
    grid, _ = _defects(flips, dg)
    decoded = grid.any(axis=1)
    # per-trial weights that differ from trial to trial
    weights = rng.uniform(0.1, 3.0, (int(decoded.sum()), len(scale)))
    together = _corrections(weights, grid[decoded], dg)
    assert together.shape == (decoded.sum(),) and set(together) <= {0, 1}
    monkeypatch.setattr(memory, "_SLICE_ENTRIES", 0)
    assert np.array_equal(_corrections(weights, grid[decoded], dg), together)
    assert 0 < together.sum() < len(together)
