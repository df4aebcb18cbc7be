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

from .checks import require_choice
from .exact import ExactCoeff, ExactMatrix
from .networks import eightsplitter_sign_form


@dataclass(frozen=True)
class ModePermutation:
    """Bijection on modes 1..8, stored as the image tuple (p(1), ..., p(8))."""
    images: tuple

    def __post_init__(self):
        if any(type(i) is not int for i in self.images):  # bools fail too
            raise ValueError(f"images must be ints, got {self.images!r}")
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
        """Parse cycle notation such as '(12)(56)' or '(1 2)(5 6)'.  Only
        whitespace may stand between cycles, and only the digits 1-8 and
        spaces inside one; '()' is the identity."""
        if not isinstance(text, str):
            raise ValueError(f"text must be a string, got {text!r}")
        if not re.fullmatch(r"\s*(\([1-8 ]*\)\s*)*", text):
            raise ValueError(f"cannot parse cycle notation: {text!r}")
        images = list(range(1, 9))
        for cyc in re.findall(r"\(([1-8 ]*)\)", text):
            elems = [int(t) for t in cyc.replace(" ", "")]
            if len(set(elems)) != len(elems):
                raise ValueError(f"bad cycle ({cyc}) in {text!r}")
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


#: Base-8 place values: a 0-based image tuple's code sorts as the tuple does
_BASE8 = 8 ** np.arange(7, -1, -1)


def _closure(generators) -> frozenset:
    """Image tuples of the group the generators generate: a breadth-first
    search from the identity on (n, 8) arrays of 0-based images, each level
    the products g o h of every generator with the last level's new
    elements, de-duplicated by their base-8 codes."""
    gens = np.array([g.images for g in generators],
                    dtype=np.int64).reshape(-1, 8) - 1
    frontier = np.arange(8, dtype=np.int64)[None, :]
    seen = frontier @ _BASE8  # codes of every element found
    levels = [frontier]
    while len(frontier):
        # (g o h)(j) = g(h(j)) for every generator g and frontier element h
        prods = gens[:, frontier].reshape(-1, 8)
        codes, first = np.unique(prods @ _BASE8, return_index=True)
        new = ~np.isin(codes, seen, assume_unique=True)
        frontier = prods[first[new]]
        seen = np.concatenate([seen, codes[new]])
        levels.append(frontier)
    return frozenset(map(tuple, (np.concatenate(levels) + 1).tolist()))


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
    require_choice("implementation", implementation, ("closure", "sets"))
    if implementation == "closure":
        return p.images in _allowed_images()
    return p.images in _allowed_images_via_sets()


def _lex_s8() -> np.ndarray:
    """S8 as a (40320, 8) int64 array of 0-based images in lexicographic
    order.  Stage m turns the lexicographic S_m in the last m columns into
    S_(m+1) in the last m + 1: block v (v = 0..m) puts v in front of S_m
    with every image >= v raised by one."""
    perms = np.empty((40320, 8), dtype=np.int64)
    perms[0, 7] = 0
    size = 1  # m!
    for m in range(1, 8):
        col = 7 - m
        tail = perms[:size, col + 1:]
        # block 0 overwrites the rows it reads from, so it goes last
        for v in range(m, -1, -1):
            block = perms[v * size:(v + 1) * size]
            block[:, col + 1:] = tail + (tail >= v)
            block[:, col] = v
        size *= m + 1
    return perms


def cosets() -> list[ModePermutation]:
    """Lexicographically smallest representative of each right coset of the
    allowed group in S8: sweep S8 in lexicographic order, and let each
    permutation that no earlier coset holds start a new one."""
    allowed = np.array(list(_allowed_images()), dtype=np.int64) - 1
    perms = _lex_s8()
    codes = perms @ _BASE8
    assigned = np.zeros(len(codes), dtype=bool)
    reps = []
    first = 0  # every permutation before it is assigned
    while True:
        first += int(np.argmin(assigned[first:]))
        if assigned[first]:
            return reps
        rep = perms[first]
        reps.append(ModePermutation(tuple(i + 1 for i in rep.tolist())))
        # its coset {g o rep}: (g o rep)(j) = g(rep(j)); sorted keys make
        # the binary searches walk the table once
        coset = np.sort(allowed[:, rep] @ _BASE8)
        assigned[np.searchsorted(codes, coset)] = True


@dataclass(frozen=True)
class SignedPermutationMatrix:
    permutation: ModePermutation  # detector d reads original detector permutation(d)
    signs: tuple  # per-row sign


@dataclass(frozen=True)
class TransformRejection:
    """S.P.S^T failed to be a signed permutation; carries the dense result."""
    matrix: ExactMatrix
    offending_row: int


def basis_transform(p: ModePermutation):
    """Exact S.P.S^T; a SignedPermutationMatrix for allowed permutations,
    a TransformRejection otherwise."""
    h = eightsplitter_sign_form()
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
