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

from .exact import ExactMatrix, HALF_SQRT2, ONE, ZERO

LAYER_TAGS = {0: "DRL", 1: "QRL", 2: "ORL"}


@dataclass(frozen=True)
class SplitterNetwork:
    n_modes: int
    layers: tuple  # tuple of layers; each layer a tuple of (j, k) 0-based pairs
    level_tags: tuple

    def __post_init__(self):
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
    if level < 0:
        raise ValueError("level must be nonnegative")
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
    m = [[ONE if i == j else ZERO for j in range(n_modes)]
         for i in range(n_modes)]
    for j, k in layer:
        m[j][j] = HALF_SQRT2
        m[j][k] = -HALF_SQRT2
        m[k][j] = HALF_SQRT2
        m[k][k] = HALF_SQRT2
    return ExactMatrix(m)


def x_block(network: SplitterNetwork) -> ExactMatrix:
    """Exact x-quadrature transfer matrix (identical for the p block)."""
    out = ExactMatrix.identity(network.n_modes)
    for layer in network.layers:
        out = layer_matrix(layer, network.n_modes) @ out
    return out


@lru_cache(maxsize=1)
def eightsplitter_matrix() -> tuple:
    """The level-2 transfer matrix S as immutable rows of ExactCoeff,
    composed once and shared by the modules that read it."""
    return tuple(map(tuple, x_block(build_network(2)).rows))


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
    composed = x_block(build_network(2))
    report = []
    for i, (row, ref) in enumerate(zip(composed.rows, EIGHTSPLITTER_SIGNS)):
        ok = True
        for entry, sign in zip(row, ref):
            numer, k = entry.as_half_power()
            ok &= (k == 3 and numer == sign)
        report.append({"name": f"S matrix row {i + 1}", "pass": bool(ok)})
    return report
