"""Balanced splitter networks: dual-, quad-, octo-rail and 2^n generalizations.

A level-n network has 2^(n+1) modes and n+1 commuting layers of 2^n balanced
beamsplitters; the layer for bit b pairs modes whose indices differ only in
bit b (0-based), oriented low index -> high index.  All transfer-matrix
identities are checked in exact Q(sqrt2) arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .checks import require_int
from .exact import ExactMatrix, HALF_SQRT2, ONE, ZERO, _new

LAYER_TAGS = {0: "DRL", 1: "QRL", 2: "ORL"}


@dataclass(frozen=True)
class SplitterNetwork:
    n_modes: int
    layers: tuple  # tuple of layers; each layer a tuple of (j, k) 0-based pairs
    level_tags: tuple

    def __post_init__(self):
        require_int("n_modes", self.n_modes, 1)
        for layer in self.layers:
            seen = set()
            for j, k in layer:
                if {j, k} & seen:
                    raise ValueError("layer pairs are not disjoint")
                seen |= {j, k}

    def to_json(self) -> str:
        doc = {
            "n_modes": self.n_modes,
            "layers": [
                {"tag": tag, "pairs": [[j + 1, k + 1] for j, k in layer]}
                for tag, layer in zip(self.level_tags, self.layers)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def build_network(level: int) -> SplitterNetwork:
    level = require_int("level", level, 0)
    n_modes = 2 ** (level + 1)
    layers = []
    tags = []
    for b in range(level + 1):
        bit = 1 << b
        layers.append(tuple((j, j | bit) for j in range(n_modes)
                            if not j & bit))
        tags.append(LAYER_TAGS.get(b, f"L{b}"))
    return SplitterNetwork(n_modes, tuple(layers), tuple(tags))


def layer_matrix(layer, n_modes: int) -> ExactMatrix:
    """Exact x-block of one beamsplitter layer."""
    n_modes = require_int("n_modes", n_modes, 1)
    m = [[ONE if i == j else ZERO for j in range(n_modes)]
         for i in range(n_modes)]
    for j, k in layer:
        m[j][j] = HALF_SQRT2
        m[j][k] = -HALF_SQRT2
        m[k][j] = HALF_SQRT2
        m[k][k] = HALF_SQRT2
    return ExactMatrix(m)


@lru_cache(maxsize=8)
def x_rows(network: SplitterNetwork) -> tuple:
    """The network's exact x-quadrature transfer matrix as immutable rows of
    ExactCoeff, composed once per network and shared by its readers.

    Each layer is (B + C*sqrt2)/sqrt2, where B holds its pair blocks
    [[1, -1], [1, 1]] and C is 1 on its unpaired modes.  The product of L
    layers is (P + Q*sqrt2)/sqrt2^L with integer matrices P and Q, composed
    as row operations on (P, Q) in Z[sqrt2]; each entry becomes an
    ExactCoeff once, at the end (``ZERO`` for a zero entry).
    """
    n = network.n_modes
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[0] * n for _ in range(n)]
    for layer in network.layers:
        unpaired = set(range(n))
        for j, k in layer:
            unpaired -= {j, k}
            p[j], p[k] = ([a - b for a, b in zip(p[j], p[k])],
                          [a + b for a, b in zip(p[j], p[k])])
            q[j], q[k] = ([a - b for a, b in zip(q[j], q[k])],
                          [a + b for a, b in zip(q[j], q[k])])
        for i in unpaired:  # (P + Q*sqrt2)*sqrt2 = 2Q + P*sqrt2
            p[i], q[i] = [2 * b for b in q[i]], p[i]
    n_layers = len(network.layers)
    if n_layers % 2:  # (P + Q*sqrt2)/sqrt2 = (2Q + P*sqrt2)/2
        p, q = [[2 * b for b in row] for row in q], p
    d = 2 ** ((n_layers + 1) // 2)
    return tuple(tuple(_new(a, b, d) if a or b else ZERO
                       for a, b in zip(p_row, q_row))
                 for p_row, q_row in zip(p, q))


def x_block(network: SplitterNetwork) -> ExactMatrix:
    """Exact x-quadrature transfer matrix (identical for the p block), as a
    fresh matrix the caller may modify."""
    return ExactMatrix(x_rows(network))


def eightsplitter_matrix() -> tuple:
    """The level-2 transfer matrix S as immutable rows of ExactCoeff."""
    return x_rows(build_network(2))


@lru_cache(maxsize=1)
def eightsplitter_sign_form() -> np.ndarray:
    """The integer sign matrix H of the composed level-2 transfer matrix,
    S = H/(2*sqrt2), as a read-only int64 array.  Integer products such as
    H.P.H^T = 8 S.P.S^T stay exact.  Raises ValueError if an entry of S is
    not +-1/(2*sqrt2)."""
    h = np.empty((8, 8), dtype=np.int64)
    for i, row in enumerate(eightsplitter_matrix()):
        for j, e in enumerate(row):
            form = e.as_half_power()
            if form is None or form[1] != 3 or abs(form[0]) != 1:
                raise ValueError(
                    f"S[{i + 1}][{j + 1}] = {e!r} is not +-1/(2*sqrt2)")
            h[i, j] = form[0]
    h.flags.writeable = False
    return h


def check_layer_commutation(network: SplitterNetwork) -> dict:
    """Exact pairwise commutation check of the layer matrices."""
    mats = [layer_matrix(l, network.n_modes) for l in network.layers]
    pairs = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            pairs[(network.level_tags[i], network.level_tags[j])] = (
                mats[i] @ mats[j] == mats[j] @ mats[i])
    return {"pairs": pairs, "all_commute": all(pairs.values())}


@dataclass(frozen=True)
class LayerCancellation:
    reduced: SplitterNetwork
    removed_tag: str
    recombination: ExactMatrix  # maps measured outcomes to reduced-network outcomes
    components: tuple  # disjoint mode groups of the reduced network


def _components(network: SplitterNetwork) -> tuple:
    parent = list(range(network.n_modes))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for layer in network.layers:
        for j, k in layer:
            parent[find(j)] = find(k)
    groups = {}
    for i in range(network.n_modes):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values()))


def cancel_layer(network: SplitterNetwork, angles) -> LayerCancellation:
    """Remove a beamsplitter layer whose pairs are measured at equal angles.

    ``angles`` is a sequence of homodyne angles, one per mode.  Returns the
    reduced network plus the exact linear rule mapping the detector outcomes
    of the full network to equivalent detector outcomes of the reduced one:
    for a removed pair (j, k) the reduced outcomes are (m_j + m_k)/sqrt2 on
    j and (m_k - m_j)/sqrt2 on k.
    """
    angles = list(getattr(angles, "angles", angles))
    if len(angles) != network.n_modes:
        raise ValueError("angle count must match mode count")
    target = None
    last_offender = None
    for idx, layer in enumerate(network.layers):
        offender = next(((j, k) for j, k in layer
                         if angles[j] != angles[k]), None)
        if offender is None:
            target = idx
            break
        last_offender = offender
    if target is None:
        raise ValueError(
            f"no layer has equal angles on all pairs; offending pair "
            f"{tuple(m + 1 for m in last_offender)}")
    n = network.n_modes
    # the layer's inverse, which is its transpose
    layer = layer_matrix(network.layers[target], n)
    rec = ExactMatrix([list(col) for col in zip(*layer.rows)])
    reduced = SplitterNetwork(
        n,
        tuple(l for i, l in enumerate(network.layers) if i != target),
        tuple(t for i, t in enumerate(network.level_tags) if i != target))
    return LayerCancellation(reduced, network.level_tags[target],
                             rec, _components(reduced))


# ---------------------------------------------------------------------------
# eightsplitter reference

#: Reference sign pattern of the eightsplitter quadrature transfer matrix;
#: the actual entries are these signs times 1/(2*sqrt2).
EIGHTSPLITTER_SIGNS = (
    (1, -1, -1, 1, -1, 1, 1, -1),
    (1, 1, -1, -1, -1, -1, 1, 1),
    (1, -1, 1, -1, -1, 1, -1, 1),
    (1, 1, 1, 1, -1, -1, -1, -1),
    (1, -1, -1, 1, 1, -1, -1, 1),
    (1, 1, -1, -1, 1, 1, -1, -1),
    (1, -1, 1, -1, 1, -1, 1, -1),
    (1, 1, 1, 1, 1, 1, 1, 1),
)


def verify_eightsplitter() -> list:
    """Exact row-by-row comparison of the composed level-2 transfer matrix
    against ``EIGHTSPLITTER_SIGNS`` as it stands at call time.  Returns one
    verdict per row."""
    report = []
    for i, (row, ref) in enumerate(zip(eightsplitter_matrix(),
                                       EIGHTSPLITTER_SIGNS)):
        ok = True
        for entry, sign in zip(row, ref):
            numer, k = entry.as_half_power()
            ok &= (k == 3 and numer == sign)
        report.append({"name": f"S matrix row {i + 1}", "pass": bool(ok)})
    return report
