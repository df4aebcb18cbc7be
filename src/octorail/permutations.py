"""The allowed-permutation subgroup of S8 and its coset structure.

A mode permutation is "allowed" when commuting it through the eight-mode
splitter network only permutes the homodyne bases (up to pi rotations),
i.e. when S.P.S^T is a signed permutation matrix.  The subgroup has order
1344 and indexes 30 right cosets of S8, one per static lattice
configuration.

The group is AGL(3, 2), which acts 3-transitively on the eight modes, so
every coset has a member that maps modes 1, 2, 3 to themselves, and the
coset's lexicographic minimum is among those members.  ``cosets`` reads the
representatives off the 120 such permutations and the 4-element pointwise
stabilizer of modes 1-3, and raises unless (representatives) * 1344 = 8!,
which holds exactly when the group is 3-transitive.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
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


def cosets() -> list[ModePermutation]:
    """Lexicographically smallest representative of each right coset of the
    allowed group G in S8, in lexicographic order.

    G is 3-transitive, so every coset G o s holds a permutation whose first
    three images are (1, 2, 3), and its minimum is one of them.  Those
    members are H o t, where H is the pointwise stabilizer of modes 1-3,
    so the representatives are the prefix-(1, 2, 3) permutations that are
    the smallest in their H-orbit.  The check (representatives) * |G| = 8!
    holds exactly when G is 3-transitive."""
    allowed = np.array(list(_allowed_images()), dtype=np.int64) - 1
    stab = allowed[(allowed[:, :3] == (0, 1, 2)).all(axis=1)]
    prefixed = np.array([(0, 1, 2) + tail for tail in
                         itertools.permutations(range(3, 8))], dtype=np.int64)
    # (h o t)(j) = h(t(j)) for every h in H (a row) and prefixed t (a column)
    orbits = stab[:, prefixed] @ _BASE8
    reps = prefixed[orbits.min(axis=0) == prefixed @ _BASE8] + 1
    if len(reps) * len(allowed) != math.factorial(8):
        raise RuntimeError("the allowed group is not 3-transitive: "
                           f"{len(reps)} * {len(allowed)} != 8!")
    return [ModePermutation(tuple(rep)) for rep in reps.tolist()]


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
            # e / 2^(6/2) = e / 8
            dense = ExactMatrix([[ExactCoeff.from_half_power(int(e), 6)
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
