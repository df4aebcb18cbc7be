"""Tests of the stages of octorail.memory, the Monte Carlo memory
experiment, against written-out oracles.

``NoiseModel.from_db`` alone maps a squeezing level to the noise scales,
and only ``test_noise_model_from_db`` tests that map, against the
variances written out in it.  Every other test runs the stages at fixed
scales, float literals in ``_SCALES``, and the simulation through
``memory._failures``, so a change to the dB accounting moves no stage
test.

Every stage that a test watches is wrapped by one recorder, ``_calls``.
The oracles are written out once each: the syndrome loop
(``_syndrome_loop``), a per-trial simulator on the program's normal stream
(``_per_trial_oracle``), the space-time graph and its boundary scan
(``_scan_oracle``), and the earlier pair scan and set-ordered DP of the
matcher.  The tests of memory's entry points as a caller sees them
(``gkp_bin``, ``wilson_interval`` and the results of
``memory_experiment``, the seeded ones among them) are in
``tests/test_surface.py``; they watch no stage.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octorail import memory, surface
from octorail.memory import SQRT_PI, NoiseModel, _corrections, _defects

#: The noise scales of the stage tests, (sigma, sigma_m) as float literals.
#: Each is labelled by the squeezing level at which sigma^2 = 2 Delta^2 and
#: sigma_m^2 = Delta^2 give it; the tests read the scales, never the level.
_SCALES = {
    "7.0": NoiseModel(0.6317059941094243, 0.44668359215096315),
    "8.0": NoiseModel(0.5630085598747346, 0.39810717055349726),
    "9.0": NoiseModel(0.5017819071656864, 0.35481338923357547),
    "10.0": NoiseModel(0.4472135954999579, 0.31622776601683794),
    "11.0": NoiseModel(0.3985795365355029, 0.28183829312644537),
    "12.0": NoiseModel(0.3552343858581805, 0.251188643150958),
    "13.0": NoiseModel(0.3166029796534683, 0.22387211385683395),
}


def _calls(mp, name, module=memory):
    """Wrap ``module.name`` through ``mp`` (a MonkeyPatch): every call runs
    the stage and appends its (args, result) to the returned list.  The
    arguments are kept as passed; no stage writes into them."""
    calls, stage = [], getattr(module, name)

    def record(*args, **kwargs):
        result = stage(*args, **kwargs)
        calls.append((args, result))
        return result

    mp.setattr(module, name, record)
    return calls


def _syndrome_loop(row, rounds, stabs, cut):
    """One trial's defects and true cut parity by plain loops over rounds
    and _rotated_layout's stabilizer lists.  ``row`` holds the trial's
    flips: its qubit flips round by round, then its readout flips.

    A qubit's error is the XOR of its flips so far; a stabilizer's syndrome
    bit XORs its members' errors and its readout flip, and the final
    readout is noiseless; a defect is a syndrome bit that differs from the
    layer before, the first layer against zeros.  Returns the defect flags
    in node order and the parity of the final errors on the cut."""
    n_s = len(stabs)
    n_q = len(row) // rounds - n_s
    errors, before, defects = [0] * n_q, [0] * n_s, []
    for layer in range(rounds + 1):
        if layer < rounds:
            for q in range(n_q):
                errors[q] ^= row[layer * n_q + q]
        now = [sum(errors[q] for q in members) % 2
               ^ (row[rounds * n_q + layer * n_s + s] if layer < rounds
                  else 0)
               for s, members in enumerate(stabs)]
        defects += [a != b for a, b in zip(now, before)]
        before = now
    return defects, sum(errors[q] for q in cut) % 2


def test_surface_aliases_are_the_memory_functions():
    """octorail.surface names three Monte Carlo functions for code that
    reads them there.  A tracer that swaps a function for a wrapper finds
    its aliases by identity, so each must be memory's own object: a
    wrapper defined in surface would hide the calls from it."""
    for name in ("memory_experiment", "decode_matching", "_flip_weights"):
        assert getattr(surface, name) is getattr(memory, name)


# --------------------------------------------------------------------------
# the noise model
# --------------------------------------------------------------------------

@pytest.mark.parametrize("db", [3.0, 7.0, 9.75, 11, 13.0, 40.0])
def test_noise_model_from_db(db):
    """The one test of the map from a squeezing level to the noise scales,
    written out: each teleportation hop adds variance
    2 * (delta^2 / 2) = delta^2; a data qubit takes two hops per round, a
    readout one."""
    delta_sq = 10 ** (-db / 10)
    sigma, sigma_m = math.sqrt(2 * delta_sq), math.sqrt(delta_sq)
    noise = NoiseModel.from_db(db)
    assert noise.sigma == pytest.approx(sigma, rel=1e-15)
    assert noise.sigma_m == pytest.approx(sigma_m, rel=1e-15)
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


# --------------------------------------------------------------------------
# the decoding graph's cache
# --------------------------------------------------------------------------

def test_decoding_graph_is_built_once_per_shape(monkeypatch):
    """The same (distance, rounds) returns one read-only graph, whose seven
    arrays include the member table; after the cache is cleared, repeated
    runs build the layout once, and cold-cache and warm-cache runs give
    equal results."""
    dg = memory._decoding_graph(5, 3)
    assert memory._decoding_graph(5, 3) is dg
    arrays = [v for v in vars(dg).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7
    # the member table pads weight-2 stabilizers with the zero column, 25
    stabs = memory._rotated_layout(5)[0]
    assert dg.members.tolist() == [list(q) + [25] * (4 - len(q))
                                   for q in stabs]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]
    layouts = _calls(monkeypatch, "_rotated_layout")
    memory._decoding_graph.cache_clear()
    args = (_SCALES["11.0"], 5, 3, 300, 2)
    cold = memory._failures(*args)
    assert [memory._failures(*args) for _ in range(3)] == [cold] * 3
    assert [a for a, _ in layouts] == [(5,)]


# --------------------------------------------------------------------------
# syndromes and flip weights, against the per-trial oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("distance, rounds", [(3, 1), (3, 4), (5, 2)])
def test_defects_equal_a_loop_over_rounds(distance, rounds):
    """_defects on random flips, trial by trial, is _syndrome_loop."""
    stabs, _, cut = memory._rotated_layout(distance)
    n_q, n_s = distance * distance, len(stabs)
    dg = memory._decoding_graph(distance, rounds)
    flips = np.random.default_rng(rounds).random(
        (40, rounds * (n_q + n_s))) < 0.15
    grid, parity = _defects(flips, dg)
    assert grid.shape == (40, (rounds + 1) * n_s) and grid.dtype == bool
    for row, got, bit in zip(flips.tolist(), grid.tolist(), parity.tolist()):
        assert (got, bit) == _syndrome_loop(row, rounds, stabs, cut)


def _per_trial_oracle(distance, noise, rounds, trials, seed):
    """Each trial of _failures(noise, distance, rounds, trials, seed) by
    plain loops, on the same standard_normal stream: one row per trial,
    its qubit shifts (round by round) first, then its readout shifts, each
    binned alone to the nearest multiple of sqrt(pi).  Yields the trial's
    flip row, its defect node ids and its true cut parity
    (``_syndrome_loop``)."""
    stabs, adjacency, cut_qubits = memory._rotated_layout(distance)
    n_qubits, n_stabs = distance * distance, len(stabs)
    assert sorted(adjacency) == list(range(n_qubits))
    assert all(len(members) in (2, 4) for members in stabs)
    assert sorted(cut_qubits) == [r * distance for r in range(distance)]
    scale = ([noise.sigma] * (rounds * n_qubits)
             + [noise.sigma_m] * (rounds * n_stabs))
    root_pi = math.sqrt(math.pi)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        row = rng.standard_normal(len(scale)).tolist()
        # odd where the nearest multiple of sqrt(pi) is odd
        flips = [math.floor(s * x / root_pi + 0.5) % 2
                 for s, x in zip(scale, row)]
        defects, parity = _syndrome_loop(flips, rounds, stabs, cut_qubits)
        yield flips, [v for v, bit in enumerate(defects) if bit], parity


@pytest.mark.parametrize("rounds", [1, 3])
@pytest.mark.parametrize("distance", [3, 5, 7])
def test_memory_trials_match_the_per_trial_oracle(monkeypatch, distance,
                                                  rounds):
    """Over two blocks, the binned flips are the oracle's, trial by trial;
    decode_matching sees exactly the oracle's defect lists, for exactly
    its trials with defects and in their order; and the failures are the
    oracle's true parities of the defect-free trials plus, for each decoded
    trial, its true parity XOR the correction parity decode_matching
    returned."""
    noise, trials, seed = _SCALES["12.0"], 300, 700 + 10 * distance + rounds
    oracle = list(_per_trial_oracle(distance, noise, rounds, trials, seed))
    binned = _calls(monkeypatch, "gkp_bin")
    decoded = _calls(monkeypatch, "decode_matching")
    failures = memory._failures(noise, distance, rounds, trials, seed)
    assert len(binned) == 2  # one call per block
    assert np.array_equal(np.concatenate([flips for _, (flips, _) in binned]),
                          [flips for flips, _, _ in oracle])
    with_defects = [t for t in oracle if t[1]]
    assert [list(a[0]) for a, _ in decoded] == [t[1] for t in with_defects]
    want = sum(t[2] for t in oracle if not t[1]) + sum(
        t[2] ^ parity for t, (_, (_, parity)) in zip(with_defects, decoded))
    assert failures == want
    assert 0 < len(decoded) < trials  # both kinds of trial occur


def _shift_sums(residuals, sigma):
    """The Gaussian densities exp(-0.5 * ((r + k sqrt(pi)) / sigma)^2),
    summed with NumPy over k = -3, -1, 1, 3 and over k = -2, 0, 2; sigma is
    a float or one scale per column."""
    dens = np.exp(-0.5 * ((residuals[..., None] + np.arange(-3, 4) * SQRT_PI)
                          / np.asarray(sigma)[..., None]) ** 2)
    return dens[..., ::2].sum(axis=-1), dens[..., 1::2].sum(axis=-1)


def _llr_weights(residuals, sigma):
    """_flip_weights with its even and odd shifts the right way round: an
    elementwise stand-in whose weights vary from trial to trial.  ``sigma``
    is a float or one scale per column."""
    odd_k, even_k = _shift_sums(residuals, sigma)
    return np.maximum(np.log(even_k) - np.log(odd_k), 1e-6)


def test_flip_weights_equal_the_written_out_sums():
    """_flip_weights, computed in place, is bit for bit the log ratio of
    the odd-k sum to the even-k sum of _shift_sums, floored at 1e-6, at one
    sigma for every column and at one sigma per column.  The residuals
    reach 2 sqrt(pi), beyond the binning range, so that a share of the
    weights lies above the floor."""
    rng = np.random.default_rng(5)
    residuals = rng.uniform(-2 * SQRT_PI, 2 * SQRT_PI, (40, 60))
    for sigma in (0.05, 0.3, 0.6, 1.5, rng.uniform(0.05, 1.5, 60)):
        odd_k, even_k = _shift_sums(residuals, sigma)
        want = np.maximum(np.log(odd_k) - np.log(even_k), 1e-6)
        assert (want > 1e-6).mean() > 0.2
        assert np.array_equal(memory._flip_weights(residuals, sigma), want)


@pytest.mark.parametrize("flip", ["program", "llr"])
@pytest.mark.parametrize("distance", [3, 5, 7])
@pytest.mark.parametrize("label", ["7.0", "10.0", "13.0"])
def test_block_weight_rows_equal_per_trial_rows(monkeypatch, distance, label,
                                                flip):
    """A block's flip weights come from one call on exactly its decoded
    trials' residuals, with the scale sigma on the rounds x d^2 qubit
    columns and sigma_m on the readout columns; the weight
    rows its slices see are bit for bit each trial's own qubit weights and
    readout weights; and no slice's sources times nodes exceeds
    _SLICE_ENTRIES unless it is one trial.  The program's weights are all
    floored to 1e-6 (its even and odd shifts are swapped), so only the
    stand-in shows a row landing on the wrong trial.  A budget of 2^12
    entries gives every case several slices."""
    rounds, trials, seed = 3, 250, 40 + distance  # one block
    noise = _SCALES[label]
    sigma, sigma_m = noise.sigma, noise.sigma_m
    n_q = rounds * distance * distance
    if flip == "llr":
        monkeypatch.setattr(memory, "_flip_weights", _llr_weights)
    weigh = memory._flip_weights
    binned = _calls(monkeypatch, "gkp_bin")
    weighed = _calls(monkeypatch, "_flip_weights")
    graphs = _calls(monkeypatch, "_slice_graph")
    paths = _calls(monkeypatch, "_slice_paths")
    monkeypatch.setattr(memory, "_SLICE_ENTRIES", 1 << 12)
    # only the weights are under test: skip the matching
    monkeypatch.setattr(memory, "decode_matching", lambda *args: ([], 0))
    memory._failures(noise, distance, rounds, trials, seed)
    ((_, (_, resid)),) = binned
    decoded = [bool(defects) for _, defects, _
               in _per_trial_oracle(distance, noise, rounds, trials, seed)]
    (((call_resid, scale), _),) = weighed
    assert np.array_equal(call_resid, resid[decoded])
    n_cols = resid.shape[1]
    assert np.array_equal(scale, [sigma] * n_q + [sigma_m] * (n_cols - n_q))
    slices = [(len(counts), len(nodes) * graph.shape[0])
              for (graph, _, nodes, counts), _ in paths]
    rows = [row for (weights, _), _ in graphs for row in weights]
    assert len(slices) > 2 and sum(n for n, _ in slices) == len(rows)
    assert all(entries <= memory._SLICE_ENTRIES or n == 1
               for n, entries in slices)
    per_trial = iter(np.concatenate([weigh(r[:n_q], sigma),
                                     weigh(r[n_q:], sigma_m)])
                     for r in resid)
    # the decoded trials' rows, in trial order
    for row in rows:
        assert any(np.array_equal(row, want) for want in per_trial)


def test_corrections_decode_each_trial_as_a_slice_of_its_own(monkeypatch):
    """One correction parity per trial with defects, in order, equal to
    what each trial decoded alone gives; trials that share a slice do not
    see one another's weights."""
    distance, rounds = 5, 3
    dg = memory._decoding_graph(distance, rounds)
    scale = _SCALES["9.0"].columns(dg)
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


# --------------------------------------------------------------------------
# the decoding graph and the boundary pass
# --------------------------------------------------------------------------

def _scan_oracle(distance, rounds):
    """Edge lists of the space-time graph and the boundary scan as the
    per-node loops computed it (anchors x nodes with a strict '<', and a
    predecessor walk for the cut parity): the sink's distances must
    reproduce it exactly.  Each boundary edge is (anchor node, weight
    column, crossing bit of its qubit).  The scan also returns, for each
    node, the cut parities of every anchor that ties for its minimum."""
    stabs, adjacency, cut_qubits = memory._rotated_layout(distance)
    n_stabs, n_qubits = len(stabs), distance * distance
    src, dst, col = [], [], []
    boundary_edges = []
    cut_edges = {}
    for layer in range(rounds):
        for q in range(n_qubits):
            stabs_of_q = adjacency[q]
            crossing = 1 if q in cut_qubits else 0
            if len(stabs_of_q) == 2:
                a = layer * n_stabs + stabs_of_q[0]
                b = layer * n_stabs + stabs_of_q[1]
                src.append(a)
                dst.append(b)
                col.append(layer * n_qubits + q)
                if crossing:
                    cut_edges[(min(a, b), max(a, b))] = 1
            elif len(stabs_of_q) == 1:
                boundary_edges.append((layer * n_stabs + stabs_of_q[0],
                                       layer * n_qubits + q, crossing))
        for s_id in range(n_stabs):
            src.append(layer * n_stabs + s_id)
            dst.append((layer + 1) * n_stabs + s_id)
            col.append(rounds * n_qubits + layer * n_stabs + s_id)

    def walk(pred_row, source, target):
        count, node = 0, target
        while node != source:
            parent = pred_row[node]
            if parent < 0:
                return count
            count += cut_edges.get((min(parent, node), max(parent, node)), 0)
            node = parent
        return count

    def boundary(graph, weight_row):
        from scipy.sparse.csgraph import dijkstra

        n_nodes = graph.shape[0]
        boundary_dist = np.full(n_nodes, np.inf)
        boundary_path = np.zeros(n_nodes, dtype=np.int64)
        tied = [set() for _ in range(n_nodes)]
        direct = {}
        for target, c, crossing in boundary_edges:
            w = weight_row[c]
            if w < direct.get(target, (np.inf, 0))[0]:
                direct[target] = (w, crossing)
        if not direct:
            return boundary_dist, boundary_path, tied
        anchors = list(direct)
        dist_b, pred_b = dijkstra(graph, indices=anchors,
                                  return_predecessors=True)
        for v in range(n_nodes):
            for k, anchor in enumerate(anchors):
                w_anchor, crossing = direct[anchor]
                total = dist_b[k, v] + w_anchor
                parity = (crossing + walk(pred_b[k], anchor, v)) % 2
                if total < boundary_dist[v]:
                    boundary_dist[v] = total
                    boundary_path[v] = parity
                    tied[v] = set()
                if total == boundary_dist[v] < np.inf:
                    tied[v].add(parity)
        return boundary_dist, boundary_path, tied

    layout = (stabs, adjacency, cut_qubits)
    return layout, (src, dst, col, boundary_edges), boundary


def _weight_rows(distance, rounds, weights, rng, count=4):
    """Trial weight rows: random multiples of 2^-12 in [0.05, 2), or every
    weight floored to 1e-6 as _flip_weights floors them.  Every path sum of
    either kind is exact in floating point, so a distance does not depend on
    the direction it is summed in."""
    n_stabs = len(memory._rotated_layout(distance)[0])
    n_cols = rounds * (distance * distance + n_stabs)
    for _ in range(count):
        if weights == "tied":
            yield np.full(n_cols, 1e-6)
        else:
            yield rng.integers(205, 8192, n_cols) / 4096


def _sink_graph(edges, row, n_nodes, keep=None):
    """The directed graph with the sink, built afresh from edge lists:
    graph edges both ways, each anchor into the sink by its lightest
    boundary edge.  ``keep`` masks the graph edges."""
    from scipy.sparse import csr_matrix

    src, dst, col, boundary_edges = edges
    src, dst, w = np.array(src), np.array(dst), row[col]
    if keep is not None:
        src, dst, w = src[keep], dst[keep], w[keep]
    anchor_w = {}
    for anchor, c, _ in boundary_edges:
        anchor_w[anchor] = min(anchor_w.get(anchor, np.inf), row[c])
    sink = n_nodes - 1
    heads = np.concatenate([src, dst, list(anchor_w)]).astype(int)
    tails = np.concatenate([dst, src, [sink] * len(anchor_w)]).astype(int)
    data = np.concatenate([w, w, list(anchor_w.values())])
    return csr_matrix((data, (heads, tails)), shape=(n_nodes, n_nodes))


@pytest.mark.parametrize("distance", [3, 5, 7])
@pytest.mark.parametrize("weights", ["random", "tied"])
def test_boundary_pass_matches_scan_oracle(distance, weights):
    """The boundary pass is the sink column of a slice's one Dijkstra,
    here a slice of one trial: each node's distance to the sink is the
    scan's boundary distance exactly, and the sink's predecessor names the
    anchor whose static crossing bit gives the cut parity.  Dijkstra's
    predecessor, not a first-anchor scan, breaks ties, so under ties the
    parity must be that of one of the tied minimising anchors."""
    from scipy.sparse.csgraph import dijkstra

    rounds = 2
    layout, edges, oracle = _scan_oracle(distance, rounds)
    n_stabs = len(layout[0])
    dg = memory._decoding_graph(distance, rounds)
    sink = dg.n_nodes - 1
    assert sink == (rounds + 1) * n_stabs
    for row in _weight_rows(distance, rounds, weights,
                            np.random.default_rng(distance)):
        graph = memory._slice_graph(row[None], dg)
        fresh = _sink_graph(edges, row, dg.n_nodes)
        assert np.array_equal(graph.indices, fresh.indices)
        assert np.array_equal(graph.indptr, fresh.indptr)
        assert np.array_equal(graph.data, fresh.data)
        assert not graph[sink].nnz  # the sink is a sink only
        # the unreachable case: without the time edges into the last layer,
        # that layer reaches no boundary edge
        keep = np.array(edges[1]) < rounds * n_stabs
        cut_off = _sink_graph(edges, row, dg.n_nodes, keep)
        for g in (graph, cut_off):
            dist, pred = dijkstra(g, directed=True, indices=range(sink),
                                  return_predecessors=True)
            bd = dist[:, sink]
            want_dist, want_path, tied = oracle(g[:sink, :sink], row)
            assert np.array_equal(bd, want_dist[:sink])
            parity = np.array([dg.crossing[p] if p >= 0 else 0
                               for p in pred[:, sink]])
            if weights == "random":
                assert all(len(t) == 1 for t in tied[:rounds * n_stabs])
                assert np.array_equal(parity, want_path[:sink])
            for v in range(sink):
                assert (parity[v] in tied[v]) if bd[v] < np.inf else (
                    pred[v, sink] < 0)
        assert np.isinf(bd[rounds * n_stabs:]).all()
        assert np.isfinite(bd[:rounds * n_stabs]).all()


@pytest.mark.parametrize("distance", [3, 5, 7])
def test_cut_is_crossed_by_boundary_edges_only(distance):
    """decode_matching adds no cut parity for a match between two defects
    and takes a boundary path's parity from its boundary edge: every cut
    qubit belongs to one stabilizer, so no graph edge crosses the cut.  The
    boundary edges of each anchor (``_scan_oracle``) all cross the cut or
    none do, so the crossing bit is a fixed property of the anchor,
    whichever of its boundary edges is the lightest."""
    stabs, adjacency, cut_qubits = memory._rotated_layout(distance)
    assert len(cut_qubits) == distance
    assert all(len(adjacency[q]) == 1 for q in cut_qubits)
    for rounds in (1, 3):
        dg = memory._decoding_graph(distance, rounds)
        assert dg.cut.tolist() == sorted(cut_qubits)
        bits = {}  # anchor node -> crossing bits of its boundary edges
        for anchor, _, crossing in _scan_oracle(distance, rounds)[1][3]:
            bits.setdefault(anchor, set()).add(crossing)
        assert all(len(anchor_bits) == 1 for anchor_bits in bits.values())
        want = np.zeros(dg.n_nodes, dtype=bool)
        for anchor, (bit,) in bits.items():
            want[anchor] = bit
        assert want.any() and np.array_equal(dg.crossing, want)


# --------------------------------------------------------------------------
# the matcher
# --------------------------------------------------------------------------

def _weight(dist, bd, matches):
    return sum(bd[a] if b is None else dist[min(a, b), max(a, b)]
               for a, b in matches)


def _exhaustive_optimum(dist, bd):
    """Least total weight over every assignment of each defect to the
    boundary or to one partner, by plain enumeration."""
    def best(rest):
        if not rest:
            return 0.0
        first, rest = rest[0], rest[1:]
        options = [bd[first] + best(rest)]
        options += [dist[first, other] + best(rest[:k] + rest[k + 1:])
                    for k, other in enumerate(rest)]
        return min(options)

    return best(tuple(range(len(bd))))


_half_units = st.integers(1, 8).map(lambda n: n / 2)


@st.composite
def _matching_instances(draw):
    """Up to ten defects with weights on a half-integer grid, so that tied
    weights and distances equal to boundary sums are common and every sum
    is exact; boundary and pair distances may be +inf."""
    k = draw(st.integers(1, 10))
    bd = np.array(draw(st.lists(_half_units | st.just(math.inf),
                                min_size=k, max_size=k)))
    dist = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            dist[a, b] = dist[b, a] = draw(_half_units | st.just(math.inf))
    return dist, bd


@settings(deadline=None)  # enumeration at ten defects is slow
@given(_matching_instances())
def test_component_dp_matches_exhaustive_enumeration(instance):
    dist, bd = instance
    want = _exhaustive_optimum(dist, bd)
    if want == math.inf:
        with pytest.raises(ValueError):
            memory._pair_defects(dist, bd)
        return
    matches = memory._pair_defects(dist, bd)
    assert sorted(v for m in matches for v in m if v is not None) == list(
        range(len(bd)))
    assert _weight(dist, bd, matches) == want


def _components(dist, bd):
    """The (bd, up) problems that _pair_defects hands to its solvers."""
    with pytest.MonkeyPatch.context() as mp:
        dp = _calls(mp, "_component_dp")
        blossom = _calls(mp, "_component_blossom")
        memory._pair_defects(dist, bd)
    return [args for args, _ in dp + blossom]


@settings(deadline=None)  # the first blossom imports networkx
@given(_matching_instances())
def test_cap_path_matches_dp_on_the_same_components(instance):
    dist, bd = instance
    if _exhaustive_optimum(dist, bd) == math.inf:
        return
    for comp_bd, up in _components(dist, bd):
        dp = memory._component_dp(comp_bd, up)
        blossom = memory._component_blossom(comp_bd, up)
        flat = {(i, j): w for i, partners in enumerate(up)
                for j, w in partners}

        def weigh(matches):
            return sum(comp_bd[i] if j is None else flat[i, j]
                       for i, j in matches)

        assert weigh(blossom) == weigh(dp)


def _kept_components(dist, bd):
    """Connected components of the pairs whose distance lies below the sum
    of their boundary distances, by a plain search."""
    k = len(bd)
    seen, components = set(), []
    for start in range(k):
        if start in seen:
            continue
        stack, nodes = [start], set()
        while stack:
            v = stack.pop()
            if v not in nodes:
                nodes.add(v)
                stack += [u for u in range(k) if u != v and
                          dist[min(u, v), max(u, v)] < bd[u] + bd[v]]
        seen |= nodes
        components.append(sorted(nodes))
    return components


@settings(deadline=None)
@given(_matching_instances())
def test_small_components_are_solved_as_the_dp_solves_them(instance):
    """Components of one or two defects are solved without a solver call,
    with the DP's own answer on the same (bd, up), and a lone defect that
    no boundary reaches raises as the DP raises."""
    dist, bd = instance
    small, dp_raises = [], False
    for nodes in _kept_components(dist, bd):
        if len(nodes) > 2:
            continue
        comp_bd = [bd[v] for v in nodes]
        up = ([[(1, dist[nodes[0], nodes[1]])], []] if len(nodes) == 2
              else [[]])
        try:
            small.append([(nodes[i], None if j is None else nodes[j])
                          for i, j in memory._component_dp(comp_bd, up)])
        except ValueError:
            dp_raises = True
    if dp_raises:
        with pytest.raises(ValueError, match="neither the boundary"):
            memory._pair_defects(dist, bd)
        return
    if _exhaustive_optimum(dist, bd) == math.inf:
        return  # a larger component has no finite optimum
    assert all(len(comp_bd) > 2 for comp_bd, _ in _components(dist, bd))
    matches = memory._pair_defects(dist, bd)
    for want in small:
        nodes = {want[0][0]} | {v for _, v in want if v is not None}
        assert [m for m in matches if m[0] in nodes] == want


def _set_ordered_dp(bd, up):
    """_component_dp as it ordered its defects before: each next defect is
    chosen by a set difference per candidate, and cost and pick sit in two
    memo dicts.  Kept as the oracle of its frontier order and tie-breaking."""
    partners = [set() for _ in bd]
    for i, row in enumerate(up):
        for j, _ in row:
            partners[i].add(j)
            partners[j].add(i)
    order, seen, unordered = [], set(), set(range(len(bd)))
    while unordered:
        v = min(unordered, key=lambda u: (u not in seen,
                                          len(partners[u] - seen), u))
        order.append(v)
        unordered.remove(v)
        seen |= partners[v]
        seen.add(v)
    rank = {v: r for r, v in enumerate(order)}
    kept = [[] for _ in bd]
    for i, row in enumerate(up):
        for j, w in row:
            low, high = sorted((rank[i], rank[j]))
            kept[low].append((1 << high, w))
    bd = [bd[v] for v in order]
    cost = {0: 0.0}
    pick = {}

    def best(mask):
        got = cost.get(mask)
        if got is None:
            low = mask & -mask
            rest = mask ^ low
            i = low.bit_length() - 1
            got, choice = bd[i] + best(rest), 0
            for bit, w in kept[i]:
                if rest & bit:
                    c = w + best(rest ^ bit)
                    if c < got:
                        got, choice = c, bit
            cost[mask], pick[mask] = got, choice
        return got

    mask = (1 << len(bd)) - 1
    if best(mask) == math.inf:
        raise ValueError("a defect can reach neither the boundary nor a "
                         "partner")
    matches = []
    while mask:
        low, bit = mask & -mask, pick[mask]
        i = order[low.bit_length() - 1]
        j = order[bit.bit_length() - 1] if bit else None
        matches.append((i, j) if j is None or i < j else (j, i))
        mask ^= low | bit
    return matches


def _scan_pair_defects(dist, bd):
    """_pair_defects as it treated every trial: the kept-pair scan, the
    union-find and the member dict, whatever the number of defects.  Kept
    as the oracle of the direct one- and two-defect path."""
    bd = bd.tolist()
    k = len(bd)
    kept = []
    for a, row in enumerate(dist.tolist()):
        for b in range(a + 1, k):
            if row[b] < bd[a] + bd[b]:
                kept.append((a, b, row[b]))
    root = list(range(k))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b, _ in kept:
        a, b = find(a), find(b)
        root[max(a, b)] = min(a, b)
    members = {}
    for v in range(k):
        members.setdefault(find(v), []).append(v)
    local, up = {}, {}
    for r, nodes in members.items():
        if len(nodes) > 2:
            local.update((v, i) for i, v in enumerate(nodes))
            up[r] = [[] for _ in nodes]
    for a, b, w in kept:
        if a in local:
            up[find(a)][local[a]].append((local[b], w))
    matches = []
    for r, nodes in members.items():
        if len(nodes) == 1:
            if bd[nodes[0]] == math.inf:
                raise ValueError("a defect can reach neither the boundary "
                                 "nor a partner")
            matches.append((nodes[0], None))
        elif len(nodes) == 2:
            matches.append((nodes[0], nodes[1]))
        else:
            for i, j in _set_ordered_dp([bd[v] for v in nodes], up[r]):
                matches.append((nodes[i], None if j is None else nodes[j]))
    return matches


_float_weights = st.floats(1e-3, 10, allow_nan=False)
_tied_weights = st.integers(1, 4).map(lambda n: n * 1e-6)


@st.composite
def _dp_components(draw):
    """A connected (bd, up) component of 3-16 defects, as _pair_defects
    hands it to _component_dp: a random spanning tree plus up to 2n more
    pairs, each list in partner order.  Weights are floats, or all tied
    multiples of 1e-6 as under the floored flip weights; a boundary
    distance may be +inf."""
    n = draw(st.integers(3, 16))
    weights = _tied_weights if draw(st.booleans()) else _float_weights
    pairs = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    node = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    bd = [draw(weights | st.just(math.inf)) for _ in range(n)]
    up = [[] for _ in range(n)]
    for a, b in sorted(pairs):
        up[a].append((b, draw(weights)))
    return bd, up


@settings(deadline=None)
@given(_dp_components())
def test_component_dp_matches_the_set_ordered_dp(component):
    """The frontier order kept in integer keys gives the set-ordered DP's
    match list exactly, ties included, or raises as it raises."""
    bd, up = component
    try:
        want = _set_ordered_dp(bd, up)
    except ValueError:
        with pytest.raises(ValueError, match="neither the boundary"):
            memory._component_dp(bd, up)
        return
    assert memory._component_dp(bd, up) == want


@st.composite
def _small_trials(draw):
    """(dist, bd) of a trial of one or two defects; any distance may be
    +inf, and tied multiples of 1e-6 make a pair's distance equal to its
    boundary sum."""
    k = draw(st.integers(1, 2))
    weights = draw(st.sampled_from([_float_weights, _tied_weights]))
    value = weights | st.just(math.inf)
    bd = np.array([draw(value) for _ in range(k)])
    dist = np.zeros((k, k))
    if k == 2:
        dist[0, 1] = dist[1, 0] = draw(value)
    return dist, bd


@settings(deadline=None, max_examples=300)
@given(_small_trials() | _matching_instances())
def test_small_trials_are_paired_as_the_scan_pairs_them(trial):
    """A trial of one or two defects gets the general scan's matches, or
    its ValueError when a defect reaches nothing; so does a trial of up to
    ten defects, which still takes the scan."""
    dist, bd = trial
    try:
        want = _scan_pair_defects(dist, bd)
    except ValueError:
        with pytest.raises(ValueError, match="neither the boundary"):
            memory._pair_defects(dist, bd)
        return
    assert memory._pair_defects(dist, bd) == want


# --------------------------------------------------------------------------
# slices and decoding
# --------------------------------------------------------------------------

def _decode(defects, graph, crossing):
    """decode_matching on one trial's graph, a slice of one trial."""
    (dist, bd, bits), = memory._slice_paths(
        graph, crossing, np.array(defects), [len(defects)])
    return memory.decode_matching(defects, dist, bd, bits)


@pytest.mark.parametrize("flip", ["program", "llr"])
@pytest.mark.parametrize("distance,label",
                         [(3, "7.0"), (5, "11.0"), (7, "13.0")])
@pytest.mark.parametrize("budget", ["default", "one trial"])
def test_slice_paths_equal_per_trial_dijkstra(monkeypatch, distance, label,
                                              budget, flip):
    """Each trial's distances and boundary distances, read off its slice's
    one Dijkstra on the block-diagonal graph, are those of a Dijkstra on a
    fresh graph of that trial alone; its crossing bits are those of the
    boundary edges of the anchors that this Dijkstra names as the sink's
    predecessors, so ties must be broken alike.  The program's weights are
    all floored to 1e-6, so ties are everywhere and every trial's graph is
    the same; the stand-in's weights differ from trial to trial, so they
    show a trial read off another's block.  With a budget of 0 every slice
    is one trial; with the default one, slices end inside the block."""
    from scipy.sparse.csgraph import dijkstra

    if budget == "one trial":
        monkeypatch.setattr(memory, "_SLICE_ENTRIES", 0)
    if flip == "llr":
        monkeypatch.setattr(memory, "_flip_weights", _llr_weights)
    rounds = 3
    _, edges, _ = _scan_oracle(distance, rounds)
    boundary_edges = edges[3]
    graphs = _calls(monkeypatch, "_slice_graph")
    slices = _calls(monkeypatch, "_slice_paths")
    memory._failures(_SCALES[label], distance, rounds, 150, distance)
    sizes = [len(counts) for (_, _, _, counts), _ in slices]
    if budget == "one trial":
        assert set(sizes) == {1}
    else:
        assert len(sizes) > 2 and max(sizes) > 1
    checked = 0
    for ((weights, dg), _), ((_, _, nodes, counts), paths) in zip(graphs,
                                                                   slices):
        sink = dg.n_nodes - 1
        first = 0
        for row, count, (dist, bd, crossing) in zip(weights, counts, paths):
            defects = nodes[first:first + count]
            first += count
            fresh = _sink_graph(edges, row, dg.n_nodes)
            want, pred = dijkstra(fresh, directed=True, indices=defects,
                                  return_predecessors=True)
            assert np.array_equal(dist, want[:, defects])
            assert np.array_equal(bd, want[:, sink])
            for a, bit in zip(pred[:, sink], crossing):
                lightest = [(row[c], x) for v, c, x in boundary_edges
                            if v == a]
                least = min(w for w, _ in lightest) if lightest else None
                assert bit == next((x for w, x in lightest if w == least),
                                   0)
            checked += 1
    assert checked > 50


def test_slice_dijkstra_output_stays_within_budget(monkeypatch):
    """No Dijkstra's output exceeds _SLICE_ENTRIES entries unless one trial
    alone does, and the slicing does not change the result."""
    import scipy.sparse.csgraph as csgraph

    args = (_SCALES["11.0"], 5, 3, 120, 9)
    whole = memory._failures(*args)
    budget, n_nodes = 300, 4 * 12 + 1
    monkeypatch.setattr(memory, "_SLICE_ENTRIES", budget)
    calls = _calls(monkeypatch, "dijkstra", csgraph)
    assert memory._failures(*args) == whole
    outputs = [(dist.size, pred.size, graph.shape[0] // n_nodes)
               for (graph, *_), (dist, pred) in calls]
    assert all(size == pred <= budget or trials == 1
               for size, pred, trials in outputs)
    # both kinds occur: slices of several trials, and lone trials over it
    assert any(trials > 1 for _, _, trials in outputs)
    assert any(size > budget for size, _, _ in outputs)


def test_cap_path_decodes_as_the_dp_does(monkeypatch):
    """With the cap at 4, every larger component goes to the blossom; its
    matchings weigh what the DP's do on the same trials."""
    decoded = _calls(monkeypatch, "decode_matching")
    memory._failures(_SCALES["8.0"], 5, 3, 60, 4)
    want = [(d, b, _weight(d, b, memory._pair_defects(d, b)))
            for (_, d, b, _), _ in decoded]
    monkeypatch.setattr(memory, "_DP_CAP", 4)
    blossoms = _calls(monkeypatch, "_component_blossom")
    for d, b, weight in want:
        assert _weight(d, b, memory._pair_defects(d, b)) == pytest.approx(
            weight, rel=1e-12, abs=0)
    sizes = [len(bd) for (bd, _), _ in blossoms]
    assert len(sizes) > 20 and min(sizes) == 5


@pytest.mark.parametrize("cap", [memory._DP_CAP, 0],
                         ids=["dp", "blossom"])
def test_unmatched_defect_raises(monkeypatch, cap):
    """A defect that reaches neither the boundary nor a partner leaves its
    component without a finite optimum; both solvers raise instead of
    matching it through a stand-in weight."""
    monkeypatch.setattr(memory, "_DP_CAP", cap)
    rounds, distance = 2, 3
    layout, edges, _ = _scan_oracle(distance, rounds)
    n_stabs = len(layout[0])
    dg = memory._decoding_graph(distance, rounds)
    row = next(_weight_rows(distance, rounds, "random",
                            np.random.default_rng(0), 1))
    keep = np.array(edges[1]) < rounds * n_stabs
    cut_off = _sink_graph(edges, row, dg.n_nodes, keep)
    last = rounds * n_stabs
    assert _decode([0, 1], cut_off, dg.crossing)[0]
    for defects in ([0, last], [last, last + 1], [0, 1, last + 2]):
        with pytest.raises(ValueError, match="neither the boundary"):
            _decode(defects, cut_off, dg.crossing)
    # components of one or two defects never reach a solver, so a solver
    # sees an unmatchable defect in three that no boundary reaches
    with pytest.raises(ValueError, match="neither the boundary"):
        memory._pair_defects(1 - np.eye(3), np.full(3, np.inf))


@pytest.mark.parametrize("weights", ["random", "tied"])
def test_decoder_matches_brute_force_correction(weights):
    """At d = 3 with one round, the decoder's correction weighs the least
    of every subset of graph and boundary edges that reproduces the
    syndrome, and its cut parity is that of one such lightest subset."""
    from scipy.sparse.csgraph import dijkstra

    distance, rounds = 3, 1
    layout, edges, _ = _scan_oracle(distance, rounds)
    src, dst, col, boundary_edges = edges
    dg = memory._decoding_graph(distance, rounds)
    n_nodes = dg.n_nodes - 1  # without the sink
    cut_qubits = layout[2]
    # every edge as (node set, weight column, crossing bit)
    all_edges = [((a, b), c, 0) for a, b, c in zip(src, dst, col)]
    all_edges += [((a,), c, x) for a, c, x in boundary_edges]
    assert len(all_edges) == 13 and len(cut_qubits) == 3
    incidence = np.zeros((len(all_edges), n_nodes), dtype=np.int64)
    for e, (nodes, _, _) in enumerate(all_edges):
        incidence[e, list(nodes)] = 1
    subsets = (np.arange(2 ** len(all_edges))[:, None]
               >> np.arange(len(all_edges))) & 1
    syndrome = (subsets @ incidence % 2) @ (1 << np.arange(n_nodes))
    crossing = subsets @ np.array([x for _, _, x in all_edges]) % 2
    for row in _weight_rows(distance, rounds, weights,
                            np.random.default_rng(11)):
        weight = subsets @ row[[c for _, c, _ in all_edges]]
        graph = memory._slice_graph(row[None], dg)
        dist = dijkstra(graph, directed=True)
        for pattern in range(1, 2 ** n_nodes):
            defects = [v for v in range(n_nodes) if pattern >> v & 1]
            matched, parity = _decode(defects, graph, dg.crossing)
            got = sum(dist[a, -1] if b == "boundary"
                      else dist[min(a, b), max(a, b)] for a, b in matched)
            hits = syndrome == pattern
            least = weight[hits].min()
            assert got == pytest.approx(least, rel=1e-12, abs=0)
            lightest = hits & np.isclose(weight, least, rtol=1e-12, atol=0)
            assert parity in set(crossing[lightest].tolist())
