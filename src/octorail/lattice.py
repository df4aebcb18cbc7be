"""Macronode lattice built from delay lines of lengths 1, n, nm and knm.

A time index j maps to four lattice coordinates via the mixed-radix rule
j = j1 + n*j2 + nm*j3 + knm*j4, giving a 4D lattice with skewed periodic
boundaries (n steps along axis 1 equal one step along axis 2, and so on).
Setting k = 0 collapses axis 4 into an internal link inside each macronode,
producing the 3D lattice that runs the surface code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .checks import require_choice, require_int

PLAIN_BELL = "plain-bell"
HADAMARD_BELL = "hadamard-bell"
INTERNAL = "internal"


@dataclass(frozen=True)
class LatticeSpec:
    n: int
    m: int
    k: int
    horizon: int
    edge_flavor: str = PLAIN_BELL

    def __post_init__(self):
        require_int("n", self.n, 1)
        require_int("m", self.m, 1)
        require_int("k", self.k, 0)
        require_int("horizon", self.horizon, 1)
        require_choice("edge_flavor", self.edge_flavor,
                       (PLAIN_BELL, HADAMARD_BELL))

    @property
    def delays(self):
        """Delay (in clock cycles) per axis 1..4; the axis-4 delay is 0
        when k = 0 (internal link)."""
        return (1, self.n, self.n * self.m, self.k * self.n * self.m)


def index_to_coords(j: int, spec: LatticeSpec):
    j = require_int("j", j, 0)
    n, m, k = spec.n, spec.m, spec.k
    j1 = j % n
    rest = j // n
    j2 = rest % m
    rest //= m
    if k >= 1:
        j3 = rest % k
        j4 = rest // k
    else:
        j3, j4 = rest, 0
    return (j1, j2, j3, j4)


def coords_to_index(coords, spec: LatticeSpec) -> int:
    """The time index of lattice point ``coords``: j1 < n, j2 < m, and
    j3 < k when k >= 1 or j4 = 0 when k = 0, the last axis being time."""
    j1, j2, j3, j4 = (require_int(f"j{axis}", c, 0)
                      for axis, c in enumerate(coords, start=1))
    n, m, k = spec.n, spec.m, spec.k
    for name, value, size in (("j1", j1, n), ("j2", j2, m), ("j3", j3, k)):
        if value >= size > 0:
            raise ValueError(f"{name} must be below {size}, got {value}")
    if k == 0 and j4 != 0:
        raise ValueError(f"j4 must be 0 when k = 0, got {j4}")
    return j1 + n * (j2 + m * (j3 + k * j4))


def neighbors(j: int, spec: LatticeSpec):
    """Neighbor list as (neighbor_index, axis, direction); at k = 0 the
    axis-4 entry is the internal self-link (direction 0)."""
    j = require_int("j", j, 0)
    if j >= spec.horizon:
        raise ValueError(f"j must be below {spec.horizon}, got {j}")
    out = []
    for axis, d in enumerate(spec.delays, start=1):
        if axis == 4 and spec.k == 0:
            out.append((j, 4, 0))
            continue
        for direction in (+1, -1):
            nb = j + direction * d
            if 0 <= nb < spec.horizon:
                out.append((nb, axis, direction))
    return out


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    axis: int
    flavor: str


@dataclass(frozen=True)
class MacronodeGraph:
    spec: LatticeSpec
    nodes: tuple  # sorted time indices
    coords: dict  # j -> (j1, j2, j3, j4)
    edges: tuple  # Edge records with a <= b
    roles: dict = field(default_factory=dict)  # optional j -> role
    ports: tuple = ()  # (kind, mode) records for wiring variants

    def to_json(self) -> str:
        doc = {
            "spec": {"n": self.spec.n, "m": self.spec.m, "k": self.spec.k,
                     "horizon": self.spec.horizon,
                     "edge_flavor": self.spec.edge_flavor},
            "nodes": [{"j": j, "coords": list(self.coords[j]),
                       **({"role": self.roles[j]} if j in self.roles else {})}
                      for j in self.nodes],
            "edges": [{"a": e.a, "b": e.b, "axis": e.axis, "flavor": e.flavor}
                      for e in self.edges],
            "ports": [list(p) for p in self.ports],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MacronodeGraph":
        """The graph that ``to_json`` wrote as ``text``; ``ValueError`` if
        ``text`` is not a string, does not parse as JSON or lacks a key or
        a nesting that ``to_json`` writes."""
        if not isinstance(text, str):
            raise ValueError(f"text must be a string, got {text!r}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            raise ValueError(f"text must be a JSON document, got {text!r}"
                             ) from None
        # a missing key or a value of the wrong JSON type surfaces as a
        # KeyError or TypeError in the reads below
        try:
            spec = LatticeSpec(**doc["spec"])
            nodes = tuple(nd["j"] for nd in doc["nodes"])
            coords = {nd["j"]: tuple(nd["coords"]) for nd in doc["nodes"]}
            roles = {nd["j"]: nd["role"] for nd in doc["nodes"]
                     if "role" in nd}
            edges = tuple(Edge(e["a"], e["b"], e["axis"], e["flavor"])
                          for e in doc["edges"])
            ports = tuple(tuple(p) for p in doc.get("ports", []))
        except (KeyError, TypeError):
            raise ValueError("text must be a macronode graph document, "
                             f"got {text!r}") from None
        return cls(spec, nodes, coords, edges, roles, ports)

    def to_dot(self) -> str:
        lines = ["graph macronodes {"]
        for j in self.nodes:
            label = ",".join(map(str, self.coords[j]))
            role = f" role={self.roles[j]}" if j in self.roles else ""
            lines.append(f'  n{j} [label="{j} ({label}){role}"];')
        for e in self.edges:
            style = ", style=dashed" if e.flavor == INTERNAL else ""
            lines.append(f'  n{e.a} -- n{e.b} [label="axis{e.axis}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_lattice(spec: LatticeSpec) -> MacronodeGraph:
    nodes = tuple(range(spec.horizon))
    coords = {j: index_to_coords(j, spec) for j in nodes}
    edges = []
    for j in nodes:
        for nb, axis, direction in neighbors(j, spec):
            if direction == 0:
                edges.append(Edge(j, j, 4, INTERNAL))
            elif direction > 0:
                edges.append(Edge(j, nb, axis, spec.edge_flavor))
    return MacronodeGraph(spec, nodes, coords, tuple(edges))


@dataclass(frozen=True)
class HalfNode:
    j: int
    half: str  # 'fwd' holds the forward-going Bell halves, 'bwd' the rest


@dataclass(frozen=True)
class SplitGraph:
    half_nodes: tuple
    edges: tuple  # ((HalfNode, HalfNode, kind), ...)


def rhg_view(graph: MacronodeGraph) -> SplitGraph:
    """Split each k=0 macronode into its two 4-mode halves.

    The 'fwd' half holds the three Bell halves paired with later macronodes
    plus one internal mode; 'bwd' holds the backward-paired halves plus the
    other internal mode.  Every interior half-node then carries exactly 3
    external links + 1 internal link (degree 4, matching the 4-regular RHG
    cluster), and the split graph is bipartite between 'fwd' and 'bwd'
    halves.
    """
    if graph.spec.k != 0:
        raise ValueError("rhg_view requires a k=0 lattice")
    half_nodes = tuple(HalfNode(j, h) for j in graph.nodes
                       for h in ("fwd", "bwd"))
    edges = []
    for e in graph.edges:
        if e.flavor == INTERNAL:
            edges.append((HalfNode(e.a, "fwd"), HalfNode(e.a, "bwd"),
                          INTERNAL))
        else:
            # Bell pair: forward half of the earlier node, backward half
            # of the later node
            edges.append((HalfNode(e.a, "fwd"), HalfNode(e.b, "bwd"),
                          e.flavor))
    return SplitGraph(half_nodes, tuple(edges))


ROLE_GRID = {(0, 0): "even-data", (1, 1): "odd-data",
             (1, 0): "ancilla-Z", (0, 1): "ancilla-X"}


def surface_layout(graph: MacronodeGraph) -> dict:
    """Checkerboard role assignment on the (j1, j2) columns of a k=0
    lattice; axis 3 is the time axis of the surface code."""
    if graph.spec.k != 0:
        raise ValueError("surface layout requires a k=0 lattice")
    if graph.spec.n < 3 or graph.spec.m < 3:
        raise ValueError("lattice too small for a surface-code patch")
    return {j: ROLE_GRID[(c[0] % 2, c[1] % 2)]
            for j, c in graph.coords.items()}


def wiring_variant(kind: str) -> MacronodeGraph:
    """Single-macronode wiring variants: 'multiplexer' feeds 7 inputs and
    keeps one Bell-connected output; 'state-injection' keeps half the
    splitter Bell-connected and opens 4 input ports."""
    require_choice("kind", kind, ("multiplexer", "state-injection"))
    if kind == "multiplexer":
        ports = tuple(("input", mode) for mode in range(1, 8)) \
            + (("bell-output", 8),)
    else:
        ports = tuple(("bell", mode) for mode in range(1, 5)) \
            + tuple(("input", mode) for mode in range(5, 9))
    return replace(build_lattice(LatticeSpec(1, 1, 1, 1)), ports=ports)
