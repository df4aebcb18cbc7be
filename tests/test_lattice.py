import json
import random

import pytest

from octorail.lattice import (INTERNAL, LatticeSpec, MacronodeGraph,
                              build_lattice, coords_to_index,
                              index_to_coords, neighbors, rhg_view,
                              surface_layout, wiring_variant)


def random_specs(count, seed=0, max_horizon=512):
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        k = rng.choice([0, 0, 1, 2, 3])
        horizon = rng.randint(1, max_horizon)
        specs.append(LatticeSpec(n, m, k, horizon))
    return specs


def test_roundtrip_exhaustive():
    for spec in random_specs(50):
        for j in range(spec.horizon):
            assert coords_to_index(index_to_coords(j, spec), spec) == j


def test_neighbor_sets_symmetric():
    for spec in random_specs(20, seed=1, max_horizon=128):
        for j in range(spec.horizon):
            for nb, axis, direction in neighbors(j, spec):
                if direction == 0:
                    assert nb == j
                    continue
                back = [(x, a, d) for x, a, d in neighbors(nb, spec)
                        if x == j and a == axis and d == -direction]
                assert back, (spec, j, nb, axis)


def test_skewed_boundary_identity():
    # n unit steps along axis 1 equal one step along axis 2, and n*m steps
    # equal one step along axis 3
    spec = LatticeSpec(4, 3, 2, 400)
    for j in (0, 1, 2, 5):
        base = index_to_coords(j, spec)
        assert index_to_coords(j + 4, spec)[1] == base[1] + 1
        assert index_to_coords(j + 4 * 3, spec)[2] == base[2] + 1
        assert index_to_coords(j + 4 * 3 * 2, spec)[3] == base[3] + 1


def test_delays():
    spec = LatticeSpec(4, 3, 2, 100)
    assert spec.delays == (1, 4, 12, 24)
    assert LatticeSpec(4, 3, 0, 100).delays == (1, 4, 12, 0)


@pytest.mark.parametrize("n, m, k, horizon, name", [
    (0, 0, 0, 4, "n"),    # used to divide by zero in index_to_coords
    (4, 0, 0, 8, "m"),    # likewise
    (4, 4, -1, 40, "k"),  # used to give a negative axis-4 delay
])
def test_spec_rejects_sizes_it_cannot_build(n, m, k, horizon, name):
    bound = "non-negative" if name == "k" else "positive"
    with pytest.raises(ValueError, match=f"^{name} must be {bound}, got "):
        LatticeSpec(n, m, k, horizon)


@pytest.mark.parametrize("field", ["n", "m", "k", "horizon"])
@pytest.mark.parametrize("bad", [4.5, True, "4"])
def test_spec_rejects_sizes_that_are_not_integers(field, bad):
    """A JSON config passes its values on unconverted."""
    sizes = {"n": 4, "m": 4, "k": 0, "horizon": 8, field: bad}
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got {bad!r}$"):
        LatticeSpec(**sizes)


@pytest.mark.parametrize("bad", [5.5, True, "3", -1])
def test_index_functions_reject_indices_that_are_not_counts(bad):
    """A time index, and each lattice coordinate, is a non-negative integer:
    5.5 would give fractional coordinates and True would act as index 1,
    so each is refused by name."""
    spec = LatticeSpec(4, 3, 2, 100)
    want = "non-negative" if bad == -1 else "an integer"
    for call in (lambda: index_to_coords(bad, spec),
                 lambda: neighbors(bad, spec)):
        with pytest.raises(ValueError, match=f"^j must be {want}, got "):
            call()
    with pytest.raises(ValueError, match=f"^j2 must be {want}, got "):
        coords_to_index((1, bad, 0, 0), spec)
    with pytest.raises(ValueError, match="^j must be below 100, got 100$"):
        neighbors(100, spec)


@pytest.mark.parametrize("k, coords, message", [
    (2, (5, 0, 0, 0), "j1 must be below 4, got 5"),
    (2, (0, 3, 0, 0), "j2 must be below 3, got 3"),
    (2, (0, 0, 2, 0), "j3 must be below 2, got 2"),
    (0, (0, 0, 1, 7), "j4 must be 0 when k = 0, got 7"),
])
def test_coords_to_index_rejects_coordinates_off_their_axes(k, coords,
                                                             message):
    """Coordinates outside their axes name no lattice point: (5, 0, 0, 0)
    would take the index of (1, 1, 0, 0), and (0, 0, 1, 7) at k = 0 that
    of (0, 0, 1, 0).  The time axis, j4 (j3 at k = 0), has no bound."""
    spec = LatticeSpec(4, 3, k, 100)
    with pytest.raises(ValueError, match=f"^{message}$"):
        coords_to_index(coords, spec)


def test_rhg_split_degree_pattern():
    # interior half-nodes: 3 external Bell links + 1 internal link each
    spec = LatticeSpec(4, 4, 0, 128)
    split = rhg_view(build_lattice(spec))
    degree = {hn: 0 for hn in split.half_nodes}
    internal = {hn: 0 for hn in split.half_nodes}
    for a, b, kind in split.edges:
        for hn in (a, b):
            if kind == INTERNAL:
                internal[hn] += 1
            else:
                degree[hn] += 1
    interior = [hn for hn in split.half_nodes
                if 16 + 12 <= hn.j < 128 - 16 - 12]
    assert interior
    for hn in interior:
        assert internal[hn] == 1
        assert degree[hn] == 3


def test_rhg_split_is_bipartite():
    spec = LatticeSpec(3, 3, 0, 54)
    split = rhg_view(build_lattice(spec))
    for a, b, kind in split.edges:
        if kind == INTERNAL:
            assert a.j == b.j and a.half != b.half
        else:
            assert a.half == "fwd" and b.half == "bwd"


def test_rhg_view_requires_k0():
    with pytest.raises(ValueError):
        rhg_view(build_lattice(LatticeSpec(3, 3, 1, 27)))


def test_surface_layout_checkerboard():
    graph = build_lattice(LatticeSpec(4, 4, 0, 64))
    roles = surface_layout(graph)
    assert set(roles.values()) == {"even-data", "odd-data", "ancilla-Z",
                                   "ancilla-X"}
    # non-wrapping steps along axes 1 and 2 alternate data and ancilla
    for j in graph.nodes:
        c = graph.coords[j]
        for nb, axis, direction in neighbors(j, graph.spec):
            if direction <= 0:
                continue
            if (axis == 1 and c[0] < 3) or (axis == 2 and c[1] < 3):
                a, b = roles[j], roles[nb]
                assert ("data" in a) != ("data" in b)


def test_graph_json_roundtrip():
    graph = build_lattice(LatticeSpec(2, 2, 0, 16))
    clone = MacronodeGraph.from_json(graph.to_json())
    assert clone == graph


def test_dot_export_node_count():
    graph = build_lattice(LatticeSpec(4, 4, 0, 64))
    dot = graph.to_dot()
    node_lines = [l for l in dot.splitlines() if "--" not in l
                  and "[label=" in l]
    assert len(node_lines) == 64


def test_wiring_variants():
    mux = wiring_variant("multiplexer")
    assert sum(kind == "input" for kind, _ in mux.ports) == 7
    inj = wiring_variant("state-injection")
    assert sum(kind == "input" for kind, _ in inj.ports) == 4
    with pytest.raises(ValueError):
        wiring_variant("unknown")
