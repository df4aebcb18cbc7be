"""The allowed-permutation subgroup of S8 and its coset structure.

A mode permutation is "allowed" when commuting it through the eight-mode
splitter network only permutes the homodyne bases (up to pi rotations),
i.e. when S.P.S^T is a signed permutation matrix.  The subgroup has order
1344 and indexes 30 right cosets of S8, one per static lattice
configuration.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import ExactCoeff, ExactMatrix
from .networks import eightsplitter_matrix


@dataclass(frozen=True)
class ModePermutation:
    """Bijection on modes 1..8, stored as the image tuple (p(1), ..., p(8))."""
    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(1, 9)):
            raise ValueError("images must be a bijection on 1..8")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "ModePermutation") -> "ModePermutation":
        """(self o other)(i) = self(other(i))."""
        return ModePermutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "ModePermutation":
        inv = [0] * 8
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return ModePermutation(tuple(inv))

    @classmethod
    def identity(cls) -> "ModePermutation":
        return cls(tuple(range(1, 9)))

    @classmethod
    def from_cycles(cls, text: str) -> "ModePermutation":
        """Parse cycle notation such as '(12)(56)' or '(1 2)(5 6)'."""
        images = list(range(1, 9))
        cycles = re.findall(r"\(([^()]*)\)", text)
        if not cycles and text.strip():
            raise ValueError(f"cannot parse cycle notation: {text!r}")
        for cyc in cycles:
            elems = [int(t) for t in re.findall(r"\d", cyc)]
            if len(set(elems)) != len(elems) or any(not 1 <= e <= 8 for e in elems):
                raise ValueError(f"bad cycle: ({cyc})")
            for a, b in zip(elems, elems[1:] + elems[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    def to_cycles(self) -> str:
        seen = [False] * 8
        parts = []
        for i in range(1, 9):
            if not seen[i - 1] and self.images[i - 1] != i:
                cyc = []
                j = i
                while not seen[j - 1]:
                    seen[j - 1] = True
                    cyc.append(j)
                    j = self.images[j - 1]
                parts.append("(" + "".join(map(str, cyc)) + ")")
        return "".join(parts) or "()"


GENERATORS = tuple(ModePermutation.from_cycles(t) for t in
                   ["(12)(56)", "(13)(57)", "(14)(58)", "(17)(28)"])

# the seven sets of four disjoint transpositions whose pairwise products
# generate the allowed group (second membership route)
TRANSPOSITION_SETS = (
    ((1, 2), (3, 4), (5, 6), (7, 8)),
    ((1, 3), (2, 4), (5, 7), (6, 8)),
    ((1, 4), (2, 3), (5, 8), (6, 7)),
    ((1, 5), (2, 6), (3, 7), (4, 8)),
    ((1, 6), (2, 5), (3, 8), (4, 7)),
    ((1, 7), (2, 8), (3, 5), (4, 6)),
    ((1, 8), (2, 7), (3, 6), (4, 5)),
)


def _closure(generators) -> frozenset:
    frontier = {ModePermutation.identity().images}
    gens = [g.images for g in generators]
    seen = set(frontier)
    while frontier:
        nxt = set()
        for gi in gens:
            for h in frontier:
                prod = tuple(gi[j - 1] for j in h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.add(prod)
        frontier = nxt
    return frozenset(seen)


@lru_cache(maxsize=1)
def _allowed_images() -> frozenset:
    return _closure(GENERATORS)


def generate_allowed() -> set[ModePermutation]:
    return {ModePermutation(im) for im in _allowed_images()}


@lru_cache(maxsize=1)
def _allowed_images_via_sets() -> frozenset:
    gens = []
    for tset in TRANSPOSITION_SETS:
        for (a, b), (c, d) in itertools.combinations(tset, 2):
            images = list(range(1, 9))
            images[a - 1], images[b - 1] = b, a
            images[c - 1], images[d - 1] = d, c
            gens.append(ModePermutation(tuple(images)))
    return _closure(gens)


def is_allowed(p: ModePermutation, implementation: str = "closure") -> bool:
    """Membership test; 'closure' uses the generator closure, 'sets' the
    transposition-pair products of the seven printed sets."""
    if implementation == "closure":
        return p.images in _allowed_images()
    if implementation == "sets":
        return p.images in _allowed_images_via_sets()
    raise ValueError("implementation must be 'closure' or 'sets'")


#: Base-8 place values: a 0-based image tuple's code sorts as the tuple does
_BASE8 = 8 ** np.arange(7, -1, -1)


def cosets() -> list[ModePermutation]:
    """Lexicographically smallest representative of each right coset of the
    allowed group in S8."""
    allowed = np.array(sorted(_allowed_images())) - 1
    # itertools.permutations yields S8 in lexicographic order
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(8))),
        dtype=np.int64, count=8 * 40320).reshape(-1, 8)
    codes = perms @ _BASE8
    assigned = np.zeros(len(codes), dtype=bool)
    reps = []
    while not assigned.all():
        rep = perms[np.argmin(assigned)]  # the first unassigned permutation
        reps.append(ModePermutation(tuple(int(i) + 1 for i in rep)))
        # its coset {g o rep}: (g o rep)(j) = g(rep(j))
        assigned[np.searchsorted(codes, allowed[:, rep] @ _BASE8)] = True
    return reps


@dataclass(frozen=True)
class SignedPermutationMatrix:
    permutation: ModePermutation  # detector d reads original detector permutation(d)
    signs: tuple  # per-row sign


@dataclass(frozen=True)
class TransformRejection:
    """S.P.S^T failed to be a signed permutation; carries the dense result."""
    matrix: ExactMatrix
    offending_row: int


@lru_cache(maxsize=1)
def _h_int():
    """Integer sign matrix H with S = H/(2*sqrt2); S.P.S^T = H.P.H^T/8
    stays in integers, which keeps the 1344-element sweep fast."""
    h = []
    for row in eightsplitter_matrix():
        hrow = []
        for e in row:
            numer, k = e.as_half_power()
            assert k == 3  # every entry is +-1/(2*sqrt2)
            hrow.append(numer)
        h.append(hrow)
    return np.array(h, dtype=np.int64)


def basis_transform(p: ModePermutation):
    """Exact S.P.S^T; a SignedPermutationMatrix for allowed permutations,
    a TransformRejection otherwise."""
    h = _h_int()
    # H @ P permutes columns of H: column i of HP is column p^{-1}... use
    # P[p(i)-1][i-1] = 1, so (H P)[:, i] = H[:, p(i)-1].
    cols = [p(i) - 1 for i in range(1, 9)]
    m8 = (h[:, cols] @ h.T)  # 8 * (S P S^T)
    images = [0] * 8
    signs = [0] * 8
    for d in range(8):
        nonzero = np.nonzero(m8[d])[0]
        if len(nonzero) != 1 or abs(m8[d, nonzero[0]]) != 8:
            dense = ExactMatrix([[ExactCoeff(Fraction(int(e), 8))
                                  for e in row] for row in m8])
            return TransformRejection(dense, d + 1)
        j = int(nonzero[0])
        images[d] = j + 1
        signs[d] = int(m8[d, j] // 8)
    return SignedPermutationMatrix(
        ModePermutation(tuple(images)), tuple(signs))


def transform_basis(p: ModePermutation, angles):
    """Homodyne angles implementing the same gate after permuting the mode
    contents by p; also returns the outcome relabeling (source detector,
    sign) per new detector."""
    t = basis_transform(p)
    if isinstance(t, TransformRejection):
        raise ValueError("permutation is not allowed")
    angles = list(getattr(angles, "angles", angles))
    new_angles = [angles[t.permutation(d) - 1] for d in range(1, 9)]
    mapping = [(t.permutation(d), t.signs[d - 1]) for d in range(1, 9)]
    return new_angles, mapping
