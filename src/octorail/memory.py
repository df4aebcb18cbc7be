"""Monte Carlo memory experiment on one check sector of the rotated surface
code, with an analog-weighted matching decoder.

``memory_experiment`` is the accounting: it derives one ``NoiseModel`` per
run from the squeezing level (``NoiseModel.from_db``) and counts the
failures that ``_failures`` simulates at those noise scales.  Block by
block, ``_failures`` samples and bins each trial's row of shifts
(``gkp_bin``), reduces the flips to defects (``_defects``) and decodes the
trials that have any (``_corrections``).  Design inspiration, with no code
taken: Stim (Gidney, Quantum 2021) samples detection events apart from
decoding, and PyMatching (Higgott, ACM TQC 2022) takes a matching graph
built once from the noise model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .checks import require_choice, require_int, require_real
from .gkp import SQRT_PI

# --------------------------------------------------------------------------
# noise model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the Gaussian quadrature shift that a data
    qubit accrues per round (``sigma``) and that a syndrome readout accrues
    (``sigma_m``)."""
    sigma: float
    sigma_m: float

    @classmethod
    def from_db(cls, squeezing_db) -> NoiseModel:
        """The phenomenological model at a squeezing level, and the one
        map in the package from a level to noise scales: each
        teleportation hop adds a shift of variance 2 * (delta^2 / 2); a data
        qubit takes two hops per round, a readout one.  ``ValueError``
        unless the level is a finite real number above 0 dB."""
        require_real("squeezing_db", squeezing_db, positive=True)
        delta_sq = 10 ** (-squeezing_db / 10)
        return cls(math.sqrt(2 * (delta_sq / 2) * 2),  # two hops per round
                   math.sqrt(2 * (delta_sq / 2)))  # one hop per readout

    def columns(self, dg: _DecodingGraph) -> np.ndarray:
        """The noise scale of each column of a trial's row, as
        ``_DecodingGraph`` lays the row out: ``sigma`` on the rounds x
        qubits columns, then ``sigma_m`` on the rounds x stabilizers
        readout columns."""
        return np.repeat([self.sigma, self.sigma_m],
                         [dg.rounds * dg.n_qubits, dg.rounds * dg.n_stabs])


# --------------------------------------------------------------------------
# GKP binning
# --------------------------------------------------------------------------

def gkp_bin(value):
    """Bin quadrature values (a float or an array) to the sqrt(pi) grid.

    Returns (parity, analog_residual) elementwise: parity is True on odd
    grid points, and the residual lies in [-sqrt(pi)/2, sqrt(pi)/2).
    ``ValueError`` if some value is not finite.
    """
    n_grid = np.floor(value / SQRT_PI + 0.5)
    # finite exactly where the values are, since sqrt(pi) > 1
    if not np.isfinite(n_grid).all():
        raise ValueError("gkp_bin takes finite values only")
    half = n_grid * 0.5  # exact: a whole number where the grid point is even
    return np.floor(half) != half, value - n_grid * SQRT_PI


# --------------------------------------------------------------------------
# layout, flip weights and matching
# --------------------------------------------------------------------------

def _rotated_layout(distance: int):
    """One check sector of the rotated surface code.

    Data qubits sit on a distance x distance grid; the returned stabilizers
    are the plaquettes of one checkerboard color (including the weight-2
    boundary halves on the top and bottom rows).  A logical operator of the
    complementary type crosses the grid horizontally, so homology is
    measured on the left column cut.
    """
    d = distance  # qubit (r, c) is r * d + c
    # the plaquette whose top-left corner is (r, c), for r + c even
    stabs = [tuple(rr * d + cc for rr in (r, r + 1) for cc in (c, c + 1)
                   if 0 <= rr < d)
             for r in range(-1, d) for c in range(r % 2, d - 1, 2)]
    # stabilizers adjacent to each qubit (1 or 2 in this sector)
    adjacency = {q: [] for q in range(d * d)}
    for s_id, members in enumerate(stabs):
        for q in members:
            adjacency[q].append(s_id)
    cut_qubits = {r * d for r in range(d)}
    return stabs, adjacency, cut_qubits


_SHIFTS = np.arange(-3, 4) * SQRT_PI


def _flip_weights(residuals: np.ndarray, sigma) -> np.ndarray:
    """Matching weight of a flip with the observed grid residual; sigma is
    a float or one noise scale per column.

    Returns log(even) - log(odd), floored at 1e-6: ``even`` sums the
    Gaussian densities at the residual shifted by k sqrt(pi) for
    k = -3, -1, 1, 3, and ``odd`` for k = -2, 0, 2.  The two sums are named
    the wrong way round (ROADMAP item 1): ``even`` is the likelihood of a
    flip, so this is the log likelihood ratio of 'flip' against 'no flip',
    not the reverse.  It lies below the floor on every residual within
    the binning range, so every such weight is exactly 1e-6 (or NaN where
    both sums underflow to 0)."""
    # the Gaussian density at each shift, exp(-0.5 * ((r + s) / sigma)^2),
    # one shift at a time: ``even`` sums shifts 0, 2, 4 and 6 of _SHIFTS,
    # ``odd`` shifts 1, 3 and 5, each left to right, as a NumPy sum over
    # four values does
    even, odd, dens = (np.empty_like(residuals) for _ in range(3))
    sums = [even, odd]
    for i, shift in enumerate(_SHIFTS):
        out = sums[i] if i < 2 else dens
        np.add(residuals, shift, out=out)
        out /= sigma
        out *= out
        out *= -0.5
        np.exp(out, out=out)
        if i >= 2:
            sums[i % 2] += dens
    with np.errstate(divide="ignore"):
        np.log(even, out=even)
        np.log(odd, out=odd)
    even -= odd
    return np.maximum(even, 1e-6, out=even)


#: Components of more defects than this go to a blossom instead of the
#: bitmask DP, whose state count grows as 2^size on dense components.  On
#: the components of memory runs at 7-11 dB the two solvers' mean times
#: cross at 22-23 defects.
_DP_CAP = 22


def _component_dp(bd, up):
    """Exact minimum-weight assignment of one component: a DP over the set
    of unmatched defects, memoised by bitmask, in which the first unmatched
    defect, in the order chosen below, goes to the boundary or to a kept
    partner.

    ``bd[i]`` is defect i's boundary distance and ``up[i]`` lists its kept
    partners ``(j, distance)`` with j > i.  Returns (i, j) pairs, i < j, with
    j = None for a boundary match.

    The DP's states are the sets of defects taken from the frontier: the
    unordered defects that have an ordered partner.  So the defects are
    ordered first to keep the frontier small: each next one is a frontier
    defect, if any, that adds the fewest new defects to it (ties to the
    lowest index).  That choice is the least of one integer key per defect,
    (not yet seen, partners not yet seen, index) in mixed radix, updated as
    defects are seen.  One memo holds each state's (cost, pick).
    """
    n = len(bd)
    partners = [[] for _ in bd]  # each kept pair appears once in ``up``
    for i, row in enumerate(up):
        for j, _ in row:
            partners[i].append(j)
            partners[j].append(i)
    key = [(n + len(p)) * n + v for v, p in enumerate(partners)]
    order, seen, unordered = [], [False] * n, set(range(n))
    while unordered:
        v = min(unordered, key=key.__getitem__)
        order.append(v)
        unordered.remove(v)
        for u in (v, *partners[v]):
            if not seen[u]:
                seen[u] = True
                key[u] -= n * n
                for w in partners[u]:
                    key[w] -= n
    rank = {v: r for r, v in enumerate(order)}
    kept = [[] for _ in bd]  # by rank: (bit of the later partner, distance)
    for i, row in enumerate(up):
        for j, w in row:
            low, high = sorted((rank[i], rank[j]))
            kept[low].append((1 << high, w))
    bd = [bd[v] for v in order]
    # mask -> (cost, the lowest defect's partner bit, 0 for the boundary)
    memo = {0: (0.0, 0)}

    def best(mask):
        got = memo.get(mask)
        if got is None:
            low = mask & -mask
            rest = mask ^ low
            i = low.bit_length() - 1
            cost, choice = bd[i] + best(rest), 0
            for bit, w in kept[i]:
                if rest & bit:
                    c = w + best(rest ^ bit)
                    if c < cost:
                        cost, choice = c, bit
            got = memo[mask] = cost, choice
        return got[0]

    mask = (1 << n) - 1
    if best(mask) == math.inf:
        raise ValueError("a defect can reach neither the boundary nor a "
                         "partner")
    matches = []
    while mask:
        low, bit = mask & -mask, memo[mask][1]
        i = order[low.bit_length() - 1]
        j = order[bit.bit_length() - 1] if bit else None
        matches.append((i, j) if j is None or i < j else (j, i))
        mask ^= low | bit
    return matches


def _component_blossom(bd, up):
    """The same assignment as ``_component_dp``, by a blossom on the
    component's sparse twin graph: defect i joins its boundary twin t_i at
    ``bd[i]``, and each kept pair joins both its defects at their distance
    and their twins at 0.  A perfect matching of that graph is an
    assignment of the same weight, and back."""
    import networkx as nx

    m = len(bd)
    edges = [(i, m + i, bd[i]) for i in range(m) if bd[i] < math.inf]
    for i, partners in enumerate(up):
        for j, w in partners:
            edges += (i, j, w), (m + i, m + j, 0.0)
    graph = nx.Graph()
    # defects before twins: in this node order networkx matches about a
    # sixth faster than with each twin next to its defect
    graph.add_nodes_from(range(2 * m))
    graph.add_weighted_edges_from(edges)
    matches = []
    for pair in nx.min_weight_matching(graph):
        i, j = sorted(pair)
        if i < m:
            matches.append((i, None if j >= m else j))
    if sum(1 if j is None else 2 for _, j in matches) < m:
        raise ValueError("a defect can reach neither the boundary nor a "
                         "partner")
    return sorted(matches)


def _pair_defects(dist, bd):
    """Exact minimum-weight assignment of defects to one another or to the
    boundary, from their distances ``dist`` (upper triangle read) and
    boundary distances ``bd``.  Returns (i, j) pairs, j = None for the
    boundary.

    A pair whose distance is not below the sum of its boundary distances
    can be split into two boundary matches at no cost, so only the other
    pairs are kept.  Most trials have one or two defects, and those are
    solved before any scan: two defects match each other if their pair is
    kept, and otherwise each defect matches the boundary; ``ValueError`` if
    such a defect has no finite boundary distance.  Larger trials scan their
    pairs on Python lists.  Each connected component of the kept pairs is
    then an independent problem (Fowler 2013; Higgott & Gidney, "Sparse
    Blossom", 2023), solved directly when it has one or two defects, as
    above.  Larger ones go to ``_component_dp``, or above ``_DP_CAP``
    defects to ``_component_blossom``.  The direct solves are the
    assignments that ``_component_dp`` gives.
    """
    bd = bd.tolist()
    k = len(bd)
    if k <= 2:
        if k == 2 and dist[0, 1] < bd[0] + bd[1]:
            return [(0, 1)]
        if math.inf in bd:
            raise ValueError("a defect can reach neither the boundary nor a "
                             "partner")
        return [(v, None) for v in range(k)]
    kept = []
    for a, row in enumerate(dist.tolist()):
        bd_a = bd[a]
        for b in range(a + 1, k):
            if row[b] < bd_a + bd[b]:
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
    local, up = {}, {}  # for the components of three or more defects
    for r, nodes in members.items():
        if len(nodes) > 2:
            local.update((v, i) for i, v in enumerate(nodes))
            up[r] = [[] for _ in nodes]
    for a, b, w in kept:  # row-major, so each list is in partner order
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
            solve = (_component_dp if len(nodes) <= _DP_CAP
                     else _component_blossom)
            for i, j in solve([bd[v] for v in nodes], up[r]):
                matches.append((nodes[i], None if j is None else nodes[j]))
    return matches


def decode_matching(defects, dist, bd, crossing):
    """Minimum-weight matching of one trial's space-time defects.

    ``defects`` lists node ids of the trial's space-time graph, whose open
    boundary is one sink node (see ``_DecodingGraph``).  ``dist`` holds
    the defects' mutual distances (upper triangle read), ``bd`` their
    distances to the sink, and ``crossing[i]`` the logical-cut crossing bit
    of defect i's shortest boundary path: the fixed bit of its anchor, the
    sink's predecessor (``_slice_paths``, ``_DecodingGraph.crossing``).
    Returns (matched pairs, total cut-crossing parity of the correction).

    The cut runs along the open boundary (see ``_rotated_layout``): every
    cut qubit belongs to one stabilizer and so is a boundary edge, never a
    graph edge.  A path between two defects therefore never crosses it,
    and only boundary matches add to the parity.  Each defect matches
    another defect or the boundary, with the least total weight
    (``_pair_defects``; the single boundary node is that of Dennis et al.,
    "Topological quantum memory", 2002); ``ValueError`` if some defect can
    reach neither.
    """
    crossings = 0
    matched = []
    for a, b in _pair_defects(dist, bd):
        if b is None:
            crossings ^= int(crossing[a])
            matched.append((defects[a], "boundary"))
        else:
            matched.append((defects[a], defects[b]))
    return matched, crossings


@dataclass(frozen=True)
class MemoryResult:
    distance: int
    squeezing_db: float
    rounds: int
    trials: int
    failures: int
    rate: float
    ci_low: float
    ci_high: float
    seed: int


def wilson_interval(failures: int, trials: int):
    """95 % Wilson score interval of a failure rate."""
    failures = require_int("failures", failures, 0)
    trials = require_int("trials", trials, 1)
    if failures > trials:
        raise ValueError(f"failures must lie in [0, {trials}], "
                         f"got {failures}")
    z = 1.96
    p = failures / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# --------------------------------------------------------------------------
# the decoding graph and the stages of a run
# --------------------------------------------------------------------------

#: Trials sampled, binned, reduced to defects and given their flip weights
#: together.  It bounds the memory of one block at any trial count and does
#: not change results: the random stream is drawn in the same order
#: whatever the block size, and the weights are elementwise.
_BLOCK_TRIALS = 256

#: Entries of one slice's shortest-path output: its sources (every defect
#: of its trials) times its nodes (every trial's graph).  A slice is the
#: longest run of consecutive decoded trials within this budget, or one
#: trial that alone exceeds it.  It bounds the Dijkstra output (``dist``
#: and ``pred``, 12 bytes an entry, under 1 MB) at any rounds; a source
#: reaches only its own trial's block, so the slicing does not change
#: results.
_SLICE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class _DecodingGraph:
    """Static structure of the memory experiment at one (distance, rounds),
    built once by ``_decoding_graph``: the layout (``_rotated_layout``) and
    the space-time matching graph.  Its arrays are read-only.

    ``members`` lists each stabilizer's four qubits, a weight-2 one padded
    with the index ``n_qubits``: ``_defects`` appends a column of zeros at
    that index to the cumulative flips, so a syndrome bit is the XOR of the
    four gathered columns.

    Node ``layer * n_stabs + s`` is stabilizer ``s`` in layer ``layer``; the
    last node is the open boundary, a sink.  An anchor, a node with edges
    to the open boundary, enters the sink by the lightest of them; they all
    cross the cut or none do.  A trial supplies its edge weights as one
    row: the flip weight of every (round, qubit), then of every (round,
    stabilizer readout).  A slice of trials is decoded on one block-diagonal
    graph (``_slice_graph``): trial i's block is this structure with every
    node offset by ``i * n_nodes``, its own sink included.
    """
    n_qubits: int
    n_stabs: int
    rounds: int  # noisy rounds; a final noiseless readout follows them
    members: np.ndarray  # (n_stabs, 4): each stabilizer's qubits; a weight-2
    # one's last two are n_qubits, the index of a column of zeros
    cut: np.ndarray  # the left-column cut qubits, sorted
    n_nodes: int  # the sink included
    indices: np.ndarray  # CSR structure of the directed adjacency
    indptr: np.ndarray
    data_col: np.ndarray  # column of each CSR entry in the weight row
    # extended by one sink-edge weight per anchor
    anchor_col: np.ndarray  # each anchor's boundary-edge weight columns,
    # a short row padded with its own first column
    crossing: np.ndarray  # True on anchors whose boundary edges cross the cut


@lru_cache(maxsize=16)
def _decoding_graph(distance: int, rounds: int) -> _DecodingGraph:
    from scipy.sparse import csr_matrix

    stabs, adjacency, cut_qubits = _rotated_layout(distance)
    n_stabs = len(stabs)
    n_qubits = len(adjacency)
    members = np.array([qubits + (n_qubits,) * (4 - len(qubits))
                        for qubits in stabs])
    sink = (rounds + 1) * n_stabs
    crossing = np.zeros(sink + 1, dtype=bool)
    src, dst, col = [], [], []
    boundary = {}  # anchor node -> its boundary edges' weight columns
    for layer in range(rounds):  # space edges exist on noisy layers only
        base = layer * n_stabs
        for q in range(n_qubits):
            stabs_of_q = adjacency[q]
            if len(stabs_of_q) == 2:
                src.append(base + stabs_of_q[0])
                dst.append(base + stabs_of_q[1])
                col.append(layer * n_qubits + q)
            elif len(stabs_of_q) == 1:
                anchor = base + stabs_of_q[0]
                boundary.setdefault(anchor, []).append(layer * n_qubits + q)
                crossing[anchor] = q in cut_qubits
        for s_id in range(n_stabs):
            src.append(base + s_id)
            dst.append(base + n_stabs + s_id)
            col.append(rounds * n_qubits + base + s_id)
    n_cols = rounds * (n_qubits + n_stabs)
    anchors = list(boundary)
    # graph edges run both ways, sink edges into the sink only; no two
    # entries join the same nodes, so each CSR entry holds one slot
    heads = np.array(src + dst + anchors)
    tails = np.array(dst + src + [sink] * len(anchors))
    slots = csr_matrix((np.arange(1.0, len(heads) + 1), (heads, tails)),
                       shape=(sink + 1, sink + 1))
    data_col = np.array(col + col + list(range(n_cols, n_cols + len(anchors))))
    data_col = data_col[slots.data.astype(np.intp) - 1]
    width = max(len(cols) for cols in boundary.values())
    anchor_col = np.array([cols + cols[:1] * (width - len(cols))
                           for cols in boundary.values()])
    cut = np.array(sorted(cut_qubits))
    for array in (members, cut, slots.indices, slots.indptr, data_col,
                  anchor_col, crossing):
        array.flags.writeable = False
    return _DecodingGraph(n_qubits, n_stabs, rounds, members, cut, sink + 1,
                          slots.indices, slots.indptr, data_col, anchor_col,
                          crossing)


def _slice_graph(weights, dg: _DecodingGraph):
    """The block-diagonal sparse directed graph of a slice of trials, one
    weight row each.  A slice of one trial is that trial's own graph.

    An anchor enters its trial's sink by its lightest boundary edge.  Each
    block repeats the trial graph's node order and CSR entry order, so a
    Dijkstra from a node of one block breaks ties as on that trial's graph
    alone.
    """
    from scipy.sparse import csr_matrix

    size = len(weights)
    sink_w = weights[:, dg.anchor_col].min(axis=2)
    data = np.concatenate([weights, sink_w], axis=1)[:, dg.data_col]
    nnz = len(dg.indices)
    blocks = np.arange(size, dtype=dg.indices.dtype)[:, None]
    indices = (dg.indices + blocks * dg.n_nodes).ravel()
    indptr = np.append((dg.indptr[:-1] + blocks * nnz).ravel(), size * nnz)
    n = size * dg.n_nodes
    return csr_matrix((data.ravel(), indices, indptr), shape=(n, n))


def _slice_paths(graph, crossing, nodes, counts):
    """One Dijkstra from every defect of a slice of trials.

    ``graph`` comes from ``_slice_graph`` and ``crossing`` is
    ``_DecodingGraph.crossing``; ``nodes`` lists the slice's defects trial
    by trial, in trial-local node ids, and trial i has ``counts[i]`` of
    them.  Returns, per trial, its defects' mutual distances, their
    distances to its sink and the cut-crossing bits of their boundary
    paths: ``crossing`` at the sink's predecessor, the anchor, in
    trial-local ids (False where no boundary is reachable).
    """
    from scipy.sparse.csgraph import dijkstra

    n_nodes = graph.shape[0] // len(counts)
    offsets = np.repeat(np.arange(len(counts)) * n_nodes, counts)
    sources = nodes + offsets
    dist, pred = dijkstra(graph, directed=True, indices=sources,
                          return_predecessors=True)
    rows = np.arange(len(sources))
    sinks = offsets + (n_nodes - 1)
    bd = dist[rows, sinks]
    anchor = pred[rows, sinks]
    # an unreached sink reads its own crossing bit, which is False
    bits = crossing[np.where(anchor >= 0, anchor, sinks) - offsets]
    mutual = dist[:, sources]
    ends = np.cumsum(counts).tolist()
    return [(mutual[lo:hi, lo:hi], bd[lo:hi], bits[lo:hi])
            for lo, hi in zip([0] + ends[:-1], ends)]


def _slices(counts, n_nodes):
    """Runs ``(lo, hi)`` of consecutive trials, trial i with ``counts[i]``
    defects on a graph of ``n_nodes`` nodes: each the longest whose
    sources times nodes stays within ``_SLICE_ENTRIES``, or one trial that
    alone exceeds it."""
    lo = 0
    while lo < len(counts):
        hi, sources = lo + 1, counts[lo]
        while (hi < len(counts) and (sources + counts[hi]) * (hi + 1 - lo)
               * n_nodes <= _SLICE_ENTRIES):
            sources += counts[hi]
            hi += 1
        yield lo, hi
        lo = hi


def _defects(flips, dg: _DecodingGraph):
    """The space-time defects and the true logical parity of a block of
    trials, from their binned flips: one row per trial, its qubit flips
    round by round, then its readout flips (``NoiseModel.columns``).

    A qubit's error is the XOR of its flips so far.  A syndrome bit is the
    XOR of its stabilizer's members' errors, gathered through
    ``_DecodingGraph.members``, and of its readout flip; a noiseless
    readout follows the last round.  A defect is a syndrome bit that
    differs from its stabilizer's bit one layer earlier, the first layer
    against zeros.  Returns the (trials, nodes without the sink) defect
    grid, in ``_DecodingGraph``'s node order, and the parity of each
    trial's final errors on the cut.
    """
    size, rounds = len(flips), dg.rounds
    n_q = rounds * dg.n_qubits
    # cumulative flips, and the column of zeros that pads dg.members
    cum = np.zeros((size, rounds, dg.n_qubits + 1), dtype=bool)
    cum[..., :-1] = flips[:, :n_q].reshape(size, rounds, dg.n_qubits)
    for r in range(1, rounds):
        cum[:, r] ^= cum[:, r - 1]
    first, *rest = dg.members.T
    parity = cum[..., first]
    for column in rest:
        parity ^= cum[..., column]
    syndromes = np.concatenate(
        [parity ^ flips[:, n_q:].reshape(size, rounds, dg.n_stabs),
         parity[:, -1:]], axis=1)
    grid = syndromes.copy()
    grid[:, 1:] ^= syndromes[:, :-1]
    return grid.reshape(size, -1), cum[:, -1, dg.cut].sum(axis=1) % 2


def _corrections(weights, grid, dg: _DecodingGraph) -> np.ndarray:
    """The cut-crossing parity of each trial's correction, for trials that
    each have a defect: ``weights`` holds their flip-weight rows
    (``_flip_weights``) and ``grid`` their defect rows (``_defects``).

    The trials are split into slices (``_slices``).  Each slice gets one
    block-diagonal graph (``_slice_graph``, on its weight rows) and one
    Dijkstra from all of its defects (``_slice_paths``), and then each
    trial is matched on its own (``decode_matching``).
    """
    # every trial's defects, trial by trial
    owner, nodes = np.nonzero(grid)
    counts = np.bincount(owner, minlength=len(grid)).tolist()
    firsts = np.cumsum([0] + counts).tolist()
    node_list = nodes.tolist()
    parities = []
    for lo, hi in _slices(counts, dg.n_nodes):
        graph = _slice_graph(weights[lo:hi], dg)
        paths = _slice_paths(graph, dg.crossing,
                             nodes[firsts[lo]:firsts[hi]], counts[lo:hi])
        for i, (dist, bd, crossing) in enumerate(paths, lo):
            _, parity = decode_matching(
                node_list[firsts[i]:firsts[i + 1]], dist, bd, crossing)
            parities.append(parity)
    return np.array(parities, dtype=int)


def _failures(noise: NoiseModel, distance: int, rounds: int, trials: int,
              seed: int) -> int:
    """The failures of ``trials`` trials at ``noise``, each of ``rounds``
    noisy rounds and a noiseless final readout, drawn from
    ``default_rng(seed)``: ``memory_experiment``'s simulation, on
    arguments that it has checked.  The count does not depend on how
    trials are blocked or sliced."""
    dg = _decoding_graph(distance, rounds)
    scale = noise.columns(dg)
    rng = np.random.default_rng(seed)
    failures = 0
    for start in range(0, trials, _BLOCK_TRIALS):
        size = min(_BLOCK_TRIALS, trials - start)
        # rng.normal(0, s, n) draws s * standard_normal(n)
        flips, resid = gkp_bin(rng.standard_normal((size, len(scale)))
                               * scale)
        grid, parity = _defects(flips, dg)
        decoded = grid.any(axis=1)
        parity[decoded] ^= _corrections(_flip_weights(resid[decoded], scale),
                                        grid[decoded], dg)
        failures += int(parity.sum())
    return failures


def memory_experiment(distance: int, squeezing_db: float, rounds: int,
                      trials: int, seed: int) -> MemoryResult:
    """Phenomenological memory experiment on one check sector of the
    rotated surface code at ``squeezing_db``: ``trials`` trials of
    ``rounds`` noisy rounds and a noiseless final readout, drawn from
    ``default_rng(seed)`` at the noise scales of ``NoiseModel.from_db``
    (``_failures``).  Returns the failures, their rate and its 95 %
    Wilson interval.  The result depends on the arguments alone, not on
    how trials are blocked or sliced.  NumPy integer counts are used, and
    echoed, as Python ints.  ``ValueError`` unless the distance is 3, 5 or
    7, rounds and trials are positive integers, the seed is a non-negative
    one and the level is finite and above 0 dB.
    """
    distance = require_int("distance", distance, 1)
    require_choice("distance", distance, (3, 5, 7))
    rounds = require_int("rounds", rounds, 1)
    trials = require_int("trials", trials, 1)
    seed = require_int("seed", seed, 0)
    noise = NoiseModel.from_db(squeezing_db)
    failures = _failures(noise, distance, rounds, trials, seed)
    ci_low, ci_high = wilson_interval(failures, trials)
    return MemoryResult(distance, squeezing_db, rounds, trials, failures,
                        failures / trials, ci_low, ci_high, seed)
