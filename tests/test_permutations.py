import itertools

import pytest

from octorail.permutations import (GENERATORS, ModePermutation,
                                   SignedPermutationMatrix,
                                   TransformRejection, basis_transform,
                                   cosets, generate_allowed, is_allowed,
                                   transform_basis)


def test_cycle_parsing_roundtrip():
    p = ModePermutation.from_cycles("(26)(37)")
    assert p.images == (1, 6, 7, 4, 5, 2, 3, 8)
    assert ModePermutation.from_cycles(p.to_cycles()) == p


def test_compose_and_inverse():
    p = ModePermutation.from_cycles("(1234)")
    q = ModePermutation.from_cycles("(56)")
    assert p.compose(p.inverse()) == ModePermutation.identity()
    assert p.compose(q) == ModePermutation.from_cycles("(1234)(56)")


def test_group_order():
    assert len(generate_allowed()) == 1344


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
