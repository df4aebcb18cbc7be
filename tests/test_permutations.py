import itertools

import pytest

from octorail import permutations
from octorail.permutations import (GENERATORS, ModePermutation,
                                   SignedPermutationMatrix,
                                   TransformRejection, basis_transform,
                                   cosets, generate_allowed, is_allowed,
                                   transform_basis)


def test_cycle_parsing_roundtrip():
    p = ModePermutation.from_cycles("(26)(37)")
    assert p.images == (1, 6, 7, 4, 5, 2, 3, 8)
    assert ModePermutation.from_cycles(p.to_cycles()) == p


@pytest.mark.parametrize("text", [
    "(12)junk", "12)(34)", "(1a2)", "junk(12)", "(12", "(12)(", "((12))",
    "(19)", "(0 1)", "(1,2)", "(1\t2)", "x"])
def test_cycle_parsing_rejects_unreadable_text(text):
    with pytest.raises(ValueError) as exc:
        ModePermutation.from_cycles(text)
    assert repr(text) in str(exc.value)


def test_cycle_parsing_rejects_repeated_modes():
    with pytest.raises(ValueError, match="bad cycle"):
        ModePermutation.from_cycles("(121)")


@pytest.mark.parametrize("text", ["()", "", "  ", " (1 2) (5 6) ", "(1)"])
def test_cycle_parsing_accepts_whitespace_and_empty_cycles(text):
    want = (2, 1, 3, 4, 6, 5, 7, 8) if "2" in text else tuple(range(1, 9))
    assert ModePermutation.from_cycles(text).images == want


@pytest.mark.parametrize("images", [
    (True, 2, 3, 4, 5, 6, 7, 8),
    (1, 2, 3, 4, 5, 6, 7, 8.0),
    (1, 2, 3, 4, 5, 6, 7, "8"),
])
def test_images_must_be_ints(images):
    with pytest.raises(ValueError, match="ints"):
        ModePermutation(images)


def test_compose_and_inverse():
    p = ModePermutation.from_cycles("(1234)")
    q = ModePermutation.from_cycles("(56)")
    assert p.compose(p.inverse()) == ModePermutation.identity()
    assert p.compose(q) == ModePermutation.from_cycles("(1234)(56)")


def test_group_order():
    assert len(generate_allowed()) == 1344


def _closure_oracle(generators):
    """The tuple-by-tuple closure: multiply every generator into each new
    element until no product is new."""
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


def _transposition_pair_generators():
    gens = []
    for tset in permutations.TRANSPOSITION_SETS:
        for (a, b), (c, d) in itertools.combinations(tset, 2):
            images = list(range(1, 9))
            images[a - 1], images[b - 1] = b, a
            images[c - 1], images[d - 1] = d, c
            gens.append(ModePermutation(tuple(images)))
    return gens


@pytest.mark.parametrize("generators", [
    GENERATORS, _transposition_pair_generators(),
    # a group of order 6: the closure does not assume the order 1344
    [ModePermutation.from_cycles("(123)"),
     ModePermutation.from_cycles("(45)")],
], ids=["generators", "sets", "order-6"])
def test_closure_matches_the_tuple_oracle(generators):
    group = permutations._closure(generators)
    assert group == _closure_oracle(generators)
    assert all(type(i) is int for images in group for i in images)
    # closed under every generator
    for g in generators:
        for h in group:
            assert tuple(g.images[j - 1] for j in h) in group


def test_lex_s8_is_itertools_order():
    table = permutations._lex_s8()
    assert table.shape == (40320, 8)
    assert table.tolist() == [list(p) for p in
                              itertools.permutations(range(8))]


def test_coset_count_and_disjointness():
    reps = cosets()
    assert len(reps) == 30
    allowed = sorted(p.images for p in generate_allowed())
    seen = set()
    for rep in reps:
        coset = {tuple(g[j - 1] for j in rep.images) for g in allowed}
        assert not coset & seen
        seen |= coset
    assert len(seen) == 40320


def _cosets_oracle():
    """The per-permutation sweep: walk S8 in lexicographic order and start
    a new coset at each permutation no earlier coset holds."""
    allowed = sorted(p.images for p in generate_allowed())
    assigned = set()
    reps = []
    for images in itertools.permutations(range(1, 9)):
        if images in assigned:
            continue
        reps.append(ModePermutation(images))
        for p in allowed:
            assigned.add(tuple(p[j - 1] for j in images))
    return reps


def test_cosets_match_per_permutation_oracle():
    reps = cosets()
    assert reps == _cosets_oracle()
    assert len(reps) == 30
    allowed = [p.images for p in generate_allowed()]
    for rep in reps:
        coset = {tuple(g[j - 1] for j in rep.images) for g in allowed}
        assert rep.images == min(coset)


def test_membership_implementations_agree_exhaustively():
    for images in itertools.permutations(range(1, 9)):
        p = ModePermutation(images)
        assert is_allowed(p, "closure") == is_allowed(p, "sets")


def test_generators_are_members():
    for g in GENERATORS:
        assert is_allowed(g)


def test_allowed_give_signed_permutations():
    for p in generate_allowed():
        assert isinstance(basis_transform(p), SignedPermutationMatrix)


def test_non_members_are_rejected():
    import random

    rng = random.Random(0)
    count = 0
    while count < 1000:
        images = tuple(rng.sample(range(1, 9), 8))
        p = ModePermutation(images)
        if is_allowed(p):
            continue
        count += 1
        assert isinstance(basis_transform(p), TransformRejection)


def test_transform_basis_relabels_angles():
    p = ModePermutation.from_cycles("(26)(37)")
    even = (0.0, 0.0, 0.0, 1.5707963267948966, 0.0, 0.0, 0.0,
            1.5707963267948966)
    new_angles, mapping = transform_basis(p, even)
    assert len(new_angles) == 8 and len(mapping) == 8
    assert sorted(m for m, _ in mapping) == list(range(1, 9))
    assert sorted(new_angles) == sorted(even)


def test_transform_basis_rejects_non_member():
    with pytest.raises(ValueError):
        transform_basis(ModePermutation.from_cycles("(12)"), [0.0] * 8)
