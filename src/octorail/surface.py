"""Surface-code operation of the eight-mode macronode architecture.

This module pins down the measurement-basis presets that drive the surface
code, derives the teleportation identities of the data-qubit bases from an
exact Heisenberg-picture model of one macronode, extracts stabilizer values
from homodyne outcomes, and runs small-distance Monte Carlo memory
experiments with an analog-weighted matching decoder.

Exact model
-----------
One macronode couples 13 optical wires: the data mode (wire ``1``), six
local Bell-pair halves (wires ``2``-``8``, excluding none) and five partner
halves (wires ``1'``, ``2'``, ``3'``, ``6'``, ``7'``) that belong to
neighboring macronodes.  Every non-data wire starts in a qunaught state
(grid spacing sqrt(2*pi)).  Each Bell pair is generated from two such
inputs by a balanced beamsplitter followed by a Hadamard (pi/2 rotation)
on one half.  A qunaught is Fourier invariant, so the model also applies a
Hadamard to that input *before* the beamsplitter: this only chooses how the
input's symbols are labelled (the labelling the reference identities are
written in) and is not a physical rotation.  The eight local wires then
traverse the three-layer splitter network and are measured.

All bookkeeping is done over the field Q(sqrt2) on the 26-dimensional
symbol space (x and p of each wire *before* entanglement generation), so
every verification below is exact, not floating point.

Lattice-trivial displacements
-----------------------------
On a qunaught input, any quadrature multiple of sqrt2 is a displacement by
2n*sqrt(pi) and acts trivially on the encoded qubit; on the data mode
(grid sqrt(pi)) even integer multiples are trivial.  The table ``_STEP``
holds this step per symbol (sqrt2 or 2), and identities are checked modulo
integer multiples of it ("droppable" below).  The record solver reads the
same table: each symbol gives it one equation over Q(sqrt2) with one
integer unknown times the symbol's step.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import (ExactCoeff, HALF_SQRT2, ONE, SQRT2, ZERO, _new,
                    gauss_jordan)
from .networks import eightsplitter_matrix, eightsplitter_sign_form

SQRT_PI = math.sqrt(math.pi)

# --------------------------------------------------------------------------
# measurement-basis presets
# --------------------------------------------------------------------------

_H = math.pi / 2

_PRESETS = {
    "even-data": (0, 0, 0, _H, 0, 0, 0, _H),
    "odd-data": (_H, 0, 0, 0, 0, 0, 0, _H),
    "ancilla": (0, 0, 0, 0, _H, 0, 0, _H),
    "boundary-V": (0, 0, 0, 0, _H, _H, _H, _H),
    "boundary-H": (0, _H, _H, 0, _H, 0, 0, _H),
    "init-zero": (_H,) * 8,
    "init-plus": (0,) * 8,
    "double-V": (_H, _H, _H, _H, 0, 0, 0, 0),
    "double-H": (_H, 0, 0, _H, 0, _H, _H, 0),
    "cut": (0,) * 8,
}


@dataclass(frozen=True)
class MeasurementBasis:
    angles: tuple
    role: str

    def __post_init__(self):
        if len(self.angles) != 8:
            raise ValueError("a macronode basis has 8 angles")
        if self.role in _PRESETS and any(a not in (0, _H) for a in self.angles):
            raise ValueError("surface-code presets use angles in {0, pi/2}")


def basis_preset(role: str) -> MeasurementBasis:
    """Measurement angles for one macronode in the given surface-code role."""
    if role not in _PRESETS:
        raise ValueError(f"unknown role: {role!r}")
    return MeasurementBasis(_PRESETS[role], role)


# --------------------------------------------------------------------------
# exact Heisenberg model of one macronode
# --------------------------------------------------------------------------

WIRES = ("1", "2", "3", "4", "5", "6", "7", "8", "1'", "2'", "3'", "6'", "7'")

#: Bell-pair wiring: (local wire, partner wire, wire carrying the Hadamard,
#: beamsplitter orientation).  The Hadamard wire gets the symbol-labelling
#: Hadamard before the beamsplitter and the physical pi/2 rotation after it.
#: Partner wires 2'/3'/6'/7' live in neighboring macronodes (cross-paired:
#: local 3 with partner 2' etc.), (4, 5) is the internal pair of the 3D
#: lattice, and (8, 1') feeds the next data input.
BELL_WIRING = (
    ("3", "2'", "3", 0),
    ("2", "3'", "2", 0),
    ("7", "6'", "7", 0),
    ("6", "7'", "6", 0),
    ("4", "5", "5", 1),
    ("8", "1'", "8", 0),
)

_N_SYM = 2 * len(WIRES)


def _xi(wire: str) -> int:
    return WIRES.index(wire)


def _pi(wire: str) -> int:
    return len(WIRES) + WIRES.index(wire)


def _sym_index(label: str) -> int:
    quad, wire = label[0], label[1:]
    if quad not in "xp" or wire not in WIRES:
        raise ValueError(f"unknown quadrature label: {label!r}")
    return _xi(wire) if quad == "x" else _pi(wire)


def sym_label(index: int) -> str:
    return ("x" if index < len(WIRES) else "p") + WIRES[index % len(WIRES)]


def _hadamard(pq, wire):
    """pi/2 rotation x -> p, p -> -x on one wire (rows indexed by symbols)."""
    ix, ip = _xi(wire), _pi(wire)
    pq[:, [ix, ip]] = pq[:, [ip, ix]]
    pq[:, ip] *= -1


def _over_sqrt2(pq):
    """Entries (P + Q*sqrt2)/2^e divided by sqrt2, as the (P, Q) pair over
    2^(e+1): (P + Q*sqrt2)/sqrt2 = (2Q + P*sqrt2)/2."""
    return np.stack([2 * pq[1], pq[0]])


class MacronodeModel:
    """Exact symbol-space Heisenberg rows of one measured macronode.

    ``rows[i]`` expresses the current quadrature of symbol index ``i`` as an
    exact linear combination of the 26 initial symbols.  Each Bell pair is
    built as: labelling Hadamard on the qunaught input of its Hadamard wire,
    balanced beamsplitter, then the physical pi/2 rotation on that same
    wire.  Local wires 1-8 carry the splitter-network output (what the
    detectors see); partner wires carry their post-Bell quadratures.

    The rows are built in integers: entry (i, j) is (P + Q*sqrt2)/2^e with
    P = pq[0, i, j], Q = pq[1, i, j] and one exponent e for every entry, and
    the splitter network is one integer product with the sign form H of the
    composed S = H/(2*sqrt2).  Each entry becomes an ExactCoeff once, at
    the end.
    """

    def __init__(self):
        pq = np.zeros((2, _N_SYM, _N_SYM), dtype=np.int64)
        pq[0] = np.eye(_N_SYM, dtype=np.int64)
        e = 0
        for local, partner, h_wire, orient in BELL_WIRING:
            a, b = (partner, local) if orient else (local, partner)
            rows_a, rows_b = [_xi(a), _pi(a)], [_xi(b), _pi(b)]
            # symbol labelling of the Fourier-invariant qunaught input
            _hadamard(pq, h_wire)
            # balanced beamsplitter (a, b) -> ((a - b)/sqrt2, (a + b)/sqrt2);
            # every other row is doubled to keep one exponent
            ra, rb = pq[:, rows_a], pq[:, rows_b]
            pq *= 2
            pq[:, rows_a] = _over_sqrt2(ra - rb)
            pq[:, rows_b] = _over_sqrt2(ra + rb)
            e += 1
            # the physical pi/2 rotation on one half of the Bell pair
            _hadamard(pq, h_wire)
        # S = H/(2*sqrt2) on the local x rows and on the local p rows
        local = [*range(8), *range(len(WIRES), len(WIRES) + 8)]
        mixed = eightsplitter_sign_form() @ pq[:, local].reshape(
            2, 2, 8, _N_SYM)
        pq *= 4
        pq[:, local] = _over_sqrt2(mixed).reshape(2, 16, _N_SYM)
        e += 2
        d = 1 << e
        self.rows = [[_new(p, q, d) for p, q in zip(p_row, q_row)]
                     for p_row, q_row in zip(*pq.tolist())]

    def detector_row(self, detector: int, angle: float):
        """Symbol-space row of outcome m_detector at homodyne angle theta,
        measuring cos(theta)*x + sin(theta)*p (theta = 0 is the x basis)."""
        if angle == 0:
            return self.rows[detector - 1]
        if angle == _H:
            return self.rows[len(WIRES) + detector - 1]
        raise ValueError("surface-code bases use angles in {0, pi/2}")

    def measurement_rows(self, basis: MeasurementBasis):
        return [self.detector_row(d, basis.angles[d - 1]) for d in range(1, 9)]

    def quadrature_row(self, label: str):
        return self.rows[_sym_index(label)]


@lru_cache(maxsize=1)
def macronode_model() -> MacronodeModel:
    return MacronodeModel()


# --------------------------------------------------------------------------
# reference teleportation identities of the data bases
# --------------------------------------------------------------------------

_ALLOWED = {ExactCoeff(0), ExactCoeff(1), ExactCoeff(-1), SQRT2, -SQRT2,
            HALF_SQRT2, -HALF_SQRT2, SQRT2 * 2, -SQRT2 * 2}


@dataclass(frozen=True)
class QuadratureRelation:
    """One teleported-output identity: output = coefficients . symbols
    + displacement . outcomes (modulo lattice-trivial terms)."""

    output_label: str
    coefficients: dict
    displacement: dict

    def __post_init__(self):
        for coeff in self.coefficients.values():
            if coeff not in _ALLOWED:
                raise ValueError("coefficient outside the documented set")


def _rel(out, coeffs, record):
    """The relation of ``out`` with coefficients given as ints or
    ExactCoeffs and the displacement record in units of 1/sqrt2."""
    disp = {f"m{d + 1}": HALF_SQRT2 * record[d] for d in range(8)}
    return QuadratureRelation(
        out, {label: val * ONE for label, val in coeffs.items()}, disp)


_S2, _HS = SQRT2, HALF_SQRT2


#: Identities of the even data basis: the teleported quadratures of the
#: partner modes, after compensating the outcome-determined displacement,
#: with the compensation (displacement record) listed per output.
#:
#: The printed even-data records list the detectors in reverse order: read
#: as printed, their +-2 entries fall on detectors 1 and 5, which this basis
#: measures in x, whereas every odd-data record puts its +-2 entries on its
#: p-detectors.  Each record below is the printed one reversed
#: (m_d <- printed m_(9-d)), which moves them onto the p-detectors 4 and 8;
#: the printed list is kept in the comment.  Read as printed, five of the
#: six records also supply the wrong data-mode part (x1, p1) to their
#: relation; reversed, all six supply the right one.
EVEN_DATA_RELATIONS = (
    _rel("x1'", {"x1": -1, "x6'": _HS, "x7'": _HS, "p5": _S2,
                 "p6": -_HS, "p7": -_HS, "p8": _S2},
         [0, 1, 1, -2, 0, 1, 1, 2]),  # printed [2, 1, 1, 0, -2, 1, 1, 0]
    _rel("p1'", {"p1": -1, "x2'": -_HS, "x3'": -_HS, "p2": _HS,
                 "p3": _HS, "p4": -_S2, "p1'": _S2},
         [0, 1, 1, 2, 0, -1, -1, 2]),  # printed [2, -1, -1, 0, 2, 1, 1, 0]
    _rel("x2'", {"x2'": _HS, "p3": _HS}, [0] * 8),
    _rel("p2'", {"p2'": _S2, "x1": 1},
         [-1, -1, 0, 0, -1, -1, 0, 0]),  # printed [0, 0, -1, -1, 0, 0, -1, -1]
    _rel("x3'", {"x3'": _HS, "p2": _HS}, [0] * 8),
    _rel("p3'", {"p3'": _S2, "x1": 1},
         [-1, 0, -1, 0, -1, 0, -1, 0]),  # printed [0, -1, 0, -1, 0, -1, 0, -1]
    _rel("x6'", {"x6'": _HS, "p7": _HS}, [0] * 8),
    _rel("p6'", {"p1": 1, "x2'": _HS, "x3'": _HS, "p6'": _S2,
                 "p2": -_HS, "p3": -_HS, "p4": _S2},
         [-1, -1, 0, -2, 1, 1, 0, -2]),  # printed [-2, 0, 1, 1, -2, 0, -1, -1]
    _rel("x7'", {"x7'": _HS, "p6": _HS}, [0] * 8),
    _rel("p7'", {"p1": 1, "x2'": _HS, "x3'": _HS, "p7'": _S2,
                 "p2": -_HS, "p3": -_HS, "p4": _S2},
         [-1, 0, -1, -2, 1, 0, 1, -2]),  # printed [-2, 1, 0, 1, -2, -1, 0, -1]
)

#: Intermediate quadrature used by the regrouped forms of p6' and p7' in the
#: even basis ("p5 prime"): p6'' = sqrt2*p6' + p5', likewise for p7''.
EVEN_P5_PRIME = {"p1": ExactCoeff(1), "x2'": HALF_SQRT2, "x3'": HALF_SQRT2,
                 "p2": -HALF_SQRT2, "p3": -HALF_SQRT2, "p5": SQRT2}

#: Identities of the odd data basis.  The printed records of p2' and p3'
#: carry (m1, m8) = (2, -2), as x1' does.  Only the p-detectors 1 and 8 see
#: the data quadrature p1, each through S with weight sqrt2/4, so such a
#: record supplies no p1; p2' and p3' (like p1', which shares their p5'
#: part and prints (2, 2)) need an odd multiple of it.  No relabelling or
#: per-detector sign convention for the whole table repairs this.  Both
#: records below use m1 = -2 (equivalently m8 = +2) and keep the printed
#: list in the comment.
ODD_DATA_RELATIONS = (
    _rel("x1'", {"x1": -1, "x2'": -_HS, "x3'": -_HS, "p2": _HS,
                 "p3": _HS, "p5": _S2, "p8": _S2},
         [2, 1, 1, 0, 0, 1, 1, -2]),
    _rel("p1'", {"p1": -1, "x6'": _HS, "x7'": _HS, "p4": -_S2,
                 "p6": -_HS, "p7": -_HS, "p1'": _S2},
         [2, -1, -1, 0, 0, 1, 1, 2]),
    _rel("x2'", {"x2'": _HS, "p3": _HS}, [0] * 8),
    _rel("p2'", {"p1": -1, "p2'": _S2, "x6'": _HS, "x7'": _HS,
                 "p4": -_S2, "p6": -_HS, "p7": -_HS},
         [-2, 0, -1, -1, 1, 1, 0, -2]),  # printed [2, 0, -1, -1, 1, 1, 0, -2]
    _rel("x3'", {"x3'": _HS, "p2": _HS}, [0] * 8),
    _rel("p3'", {"p1": -1, "p3'": _S2, "x6'": _HS, "x7'": _HS,
                 "p4": -_S2, "p6": -_HS, "p7": -_HS},
         [-2, -1, 0, -1, 1, 0, 1, -2]),  # printed [2, -1, 0, -1, 1, 0, 1, -2]
    _rel("x6'", {"x6'": _HS, "p7": _HS}, [0] * 8),
    _rel("p6'", {"p6'": _S2, "x1": -1}, [0, 0, 1, 1, 1, 1, 0, 0]),
    _rel("x7'", {"x7'": _HS, "p6": _HS}, [0] * 8),
    _rel("p7'", {"p7'": _S2, "x1": -1}, [0, 1, 0, 1, 1, 0, 1, 0]),
)

#: Intermediate quadrature of the odd-basis regroupings:
#: p2'' = sqrt2*p2' + p5', p3'' = sqrt2*p3' + p5'.
ODD_P5_PRIME = {"p1": ExactCoeff(-1), "x6'": HALF_SQRT2, "x7'": HALF_SQRT2,
                "p4": -SQRT2, "p6": -HALF_SQRT2, "p7": -HALF_SQRT2}

_DATA_RELATIONS = {"even-data": EVEN_DATA_RELATIONS,
                   "odd-data": ODD_DATA_RELATIONS}
_P5_PRIME = {"even-data": EVEN_P5_PRIME, "odd-data": ODD_P5_PRIME}
_REGROUPED = {"even-data": ("p6'", "p7'"), "odd-data": ("p2'", "p3'")}

_DATA = (_sym_index("x1"), _sym_index("p1"))

#: The lattice step of each symbol: a displacement by an integer multiple
#: of it is lattice-trivial (sqrt2 on a qunaught symbol, 2 on the data
#: mode).
_STEP = tuple(ExactCoeff(2) if i in _DATA else SQRT2 for i in range(_N_SYM))


def _symbol_vector(coefficients: dict):
    """The symbol-space vector of a {symbol label: coefficient} dict."""
    vec = [ZERO] * _N_SYM
    for label, coeff in coefficients.items():
        vec[_sym_index(label)] = vec[_sym_index(label)] + coeff
    return vec


def _target_vector(rel: QuadratureRelation):
    return _symbol_vector(rel.coefficients)


def _leftover(target, raw, rows_m, record):
    """target - raw - sum_d record[m_d] * rows_m[d], symbol by symbol: what
    is left of a relation once the outcome record compensates it."""
    left = [t - r for t, r in zip(target, raw)]
    for d, row in enumerate(rows_m):
        coeff = record[f"m{d + 1}"]
        if coeff:
            left = [c - coeff * y for c, y in zip(left, row)]
    return left


def _is_droppable(vec) -> bool:
    """True when the leftover is a lattice-trivial displacement: an integer
    multiple of ``_STEP`` on every symbol."""
    for c, step in zip(vec, _STEP):
        if c:
            n = c / step
            if n.q or n.d != 1:
                return False
    return True


# ---- the record solver ---------------------------------------------------

def _column_reduce(matrix):
    """Integer column reduction of ``matrix``: (a, v) with a = matrix @ v
    for a unimodular v, where each row of a has at most one nonzero entry
    past the columns that the rows above it lead."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    a = [row[:] for row in matrix]
    v = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]
    rank = 0
    for i in range(n_rows):
        while True:
            cols = [c for c in range(rank, n_cols) if a[i][c]]
            if not cols:
                break
            if len(cols) == 1:
                c0 = cols[0]
                if c0 != rank:
                    for mat in (a, v):
                        for row in mat:
                            row[rank], row[c0] = row[c0], row[rank]
                break
            cols.sort(key=lambda c: abs(a[i][c]))
            c0 = cols[0]
            for c in cols[1:]:
                q = a[i][c] // a[i][c0]
                for mat in (a, v):
                    for row in mat:
                        row[c] -= q * row[c0]
        if rank < n_cols and a[i][rank]:
            rank += 1
    return a, v


def _back_substitute(a, v, rhs):
    """One integer solution of matrix @ z = rhs, given the column reduction
    (a, v) of matrix, or None."""
    n_cols = len(v)
    y = [0] * n_cols
    used = [False] * n_cols
    for i, row in enumerate(a):
        residual = rhs[i] - sum(row[c] * y[c] for c in range(n_cols))
        lead = next((c for c in range(n_cols) if row[c] and not used[c]),
                    None)
        if lead is None:
            if residual != 0:
                return None
            continue
        if residual % row[lead] != 0:
            return None
        y[lead] = residual // row[lead]
        used[lead] = True
    return [sum(v[i][c] * y[c] for c in range(n_cols)) for i in range(n_cols)]


#: The symbols in the order of the record system's equations and of their
#: lattice integers: the qunaught symbols, then the data mode.
_CONDITIONS = tuple(i for i in range(_N_SYM) if i not in _DATA) + _DATA


@dataclass(frozen=True)
class _RecordFactor:
    """The record system of one set of detector rows, eliminated once.

    ``transform`` holds, for each equation, the nonzero entries (row,
    value) of its column of the elimination's row transform.  The first
    ``len(pivots)`` reduced rows give the pivot entries of the record r;
    ``r_rows`` keeps their nonzero lattice-integer coefficients as
    (k, value).  The other rows involve the integers n alone, and hold
    when both their rational and their sqrt2 parts do: ``n_dens`` scales
    each such row to integers, and ``reduction`` is the integer column
    reduction of the scaled parts, each row's rational part before its
    sqrt2 part.
    """

    pivots: tuple
    transform: tuple
    r_rows: tuple
    n_dens: tuple
    reduction: tuple


@lru_cache(maxsize=8)
def _record_factor(rows_m):
    """Eliminate the record system [M | S] of the detector rows ``rows_m``
    (a tuple of row tuples) over Q(sqrt2) in the record r: row k is
    sum_d r_d * m_d[i] + _STEP[i] * n_k for the k-th symbol i of
    ``_CONDITIONS``.  The n block S starts as the diagonal of the steps,
    so the row transform is the reduced n block with each column divided
    by its step."""
    n_eq = len(_CONDITIONS)
    rows = [[rows_m[d][i] for d in range(8)]
            + [_STEP[i] if j == k else ZERO for j in range(n_eq)]
            for k, i in enumerate(_CONDITIONS)]
    aug, pivots = gauss_jordan(rows, 8)
    rank = len(pivots)
    transform = tuple(
        tuple((r, row[8 + k] / _STEP[i]) for r, row in enumerate(aug)
              if row[8 + k])
        for k, i in enumerate(_CONDITIONS))
    r_rows = tuple(tuple((k, e) for k, e in enumerate(row[8:]) if e)
                   for row in aug[:rank])
    n_dens, n_int = [], []
    for row in aug[rank:]:
        den = math.lcm(*(e.d for e in row[8:]))
        n_dens.append(den)
        n_int.append([e.p * (den // e.d) for e in row[8:]])
        n_int.append([e.q * (den // e.d) for e in row[8:]])
    a, v = _column_reduce(n_int)
    return _RecordFactor(tuple(pivots), transform, r_rows, tuple(n_dens),
                         (tuple(map(tuple, a)), tuple(map(tuple, v))))


def _solve_displacement(target, raw, rows_m):
    """Exact outcome coefficients r (in Q(sqrt2)) such that
    target = raw + sum_d r_d * m_d modulo lattice-trivial terms; None if no
    such record exists.

    Each symbol i gives one equation over Q(sqrt2),
    sum_d r_d * m_d[i] + _STEP[i] * n_i = target[i] - raw[i], in the record
    r and one integer n_i.  The Gauss-Jordan elimination over r depends
    only on the detector rows, so it is factored once per measurement basis
    (``_record_factor``) and each relation costs one transform of its
    right-hand side and one integer back-substitution.  The rows left in n
    alone settle the integers; an inconsistent system shows up there as a
    zero row with a nonzero right-hand side.  The pivot rows then give r,
    with its free entries at 0.  Among equally valid records, the order of
    ``_CONDITIONS`` decides which one is returned.
    """
    factor = _record_factor(tuple(map(tuple, rows_m)))
    diff = [t - r for t, r in zip(target, raw)]
    reduced = [ZERO] * len(_CONDITIONS)
    for column, i in zip(factor.transform, _CONDITIONS):
        if diff[i]:
            for r, t in column:
                reduced[r] = reduced[r] + t * diff[i]
    rank = len(factor.pivots)
    g_int = []
    for den, g in zip(factor.n_dens, reduced[rank:]):
        for part in (g.p, g.q):
            scaled, rest = divmod(part * den, g.d)
            if rest:
                return None
            g_int.append(scaled)
    n = _back_substitute(*factor.reduction, g_int)
    if n is None:
        return None
    record = {f"m{d + 1}": ZERO for d in range(8)}
    for c, g, coeffs in zip(factor.pivots, reduced, factor.r_rows):
        record[f"m{c + 1}"] = g - sum((e * n[k] for k, e in coeffs if n[k]),
                                      ZERO)
    return record if _is_droppable(
        _leftover(target, raw, rows_m, record)) else None


# ---- relation verification ----------------------------------------------

@dataclass(frozen=True)
class RelationCheck:
    """Verification verdict for one reference identity.

    ``status`` is ``"exact"`` when the identity holds bit-exactly with the
    reference displacement record, ``"record-mismatch"`` when the quadrature
    part is derivable but only with the solver's own record (attached as
    ``derived_displacement``), and ``"underivable"`` when no outcome record
    makes the identity hold modulo lattice-trivial terms.
    """

    relation: QuadratureRelation
    status: str
    derived_displacement: dict | None = None
    diff: str = ""

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def _format_leftover(vec) -> str:
    parts = []
    for i, coeff in enumerate(vec):
        if coeff:
            parts.append(f"{float(coeff):+.4g}*{sym_label(i)}")
    return " ".join(parts) or "0"


def verify_relation(rel: QuadratureRelation,
                    basis: MeasurementBasis) -> RelationCheck:
    model = macronode_model()
    rows_m = model.measurement_rows(basis)
    raw = model.quadrature_row(rel.output_label)
    target = _target_vector(rel)
    leftover = _leftover(target, raw, rows_m, rel.displacement)
    if _is_droppable(leftover):
        return RelationCheck(rel, "exact")
    derived = _solve_displacement(target, raw, rows_m)
    if derived is not None:
        return RelationCheck(rel, "record-mismatch", derived,
                             diff=_format_leftover(leftover))
    return RelationCheck(rel, "underivable",
                         diff=_format_leftover(leftover))


def verify_regrouping(role: str) -> bool:
    """Check that the regrouped forms (via the intermediate p5') agree with
    the direct identities modulo lattice-trivial terms."""
    rels = {r.output_label: r for r in _DATA_RELATIONS[role]}
    p5 = _symbol_vector(_P5_PRIME[role])
    for out in _REGROUPED[role]:
        regrouped = list(p5)
        idx = _sym_index(out)
        regrouped[idx] = regrouped[idx] + SQRT2
        direct = _target_vector(rels[out])
        if not _is_droppable([a - b for a, b in zip(regrouped, direct)]):
            return False
    return True


def derive_quadrature_relations(role: str) -> list[RelationCheck]:
    """Re-derive the teleportation identities of a data basis from the exact
    macronode model and compare against the reference tables.

    Every check whose ``status`` is not ``"exact"`` carries a diff; callers
    that require bit-exact agreement should treat those as failures.
    """
    if role not in _DATA_RELATIONS:
        raise ValueError("role must be 'even-data' or 'odd-data'")
    basis = basis_preset(role)
    return [verify_relation(rel, basis) for rel in _DATA_RELATIONS[role]]


# --------------------------------------------------------------------------
# stabilizer extraction
# --------------------------------------------------------------------------

_HALF = ONE / 2

#: The printed stabilizer measurements: for each kind, one (outcome
#: weights, input modes) pair per combination, where the input modes are
#: the 0-based modes the combination reads, each with coefficient 1/sqrt2.
STABILIZERS = {
    "bulk-X": (((0, 0, 0, 0, -1, 0, 0, 1), (1, 2, 5, 6)),),
    "boundary-V": (((0, 0, 0, 0, -_HALF, _HALF, -_HALF, _HALF), (1, 5)),
                   ((0, 0, 0, 0, -_HALF, -_HALF, _HALF, _HALF), (2, 6))),
    "boundary-H": (((0, _HALF, -_HALF, 0, -_HALF, 0, 0, _HALF), (1, 6)),
                   ((0, -_HALF, _HALF, 0, -_HALF, 0, 0, _HALF), (2, 5))),
}


def stabilizer_combination(kind: str):
    """Outcome weight vectors and the induced input-quadrature coefficient
    vectors for the printed stabilizer measurements (:data:`STABILIZERS`),
    by exact row arithmetic on the splitter transfer matrix.

    Returns a list of (outcome_weights, input_coefficients) pairs, both
    length-8 tuples of ExactCoeff.
    """
    if kind not in STABILIZERS:
        raise ValueError(f"unknown stabilizer kind: {kind!r}")
    s = eightsplitter_matrix()
    combos = []
    for weights, _ in STABILIZERS[kind]:
        weights = tuple(w * ONE for w in weights)
        inputs = tuple(sum((w * s[d][j] for d, w in enumerate(weights)
                            if w), ZERO) for j in range(8))
        combos.append((weights, inputs))
    return combos


def extract_stabilizer(outcomes, kind: str):
    """Stabilizer values from homodyne outcomes.

    ``outcomes`` is one 8-vector for the single-ancilla kinds (``bulk-X``,
    ``boundary-V``, ``boundary-H``) and a pair of 8-vectors for ``double``
    and ``twist``, whose value is the product of the two ancillas' bulk
    combinations (the reading of the two-ancilla patch rule implemented
    here; flagged as one consistent interpretation).
    """
    if kind in ("double", "twist"):
        first, second = outcomes
        a = extract_stabilizer(first, "bulk-X")[0]
        b = extract_stabilizer(second, "bulk-X")[0]
        return [a * b]
    if kind not in STABILIZERS:
        raise ValueError(f"unknown stabilizer kind: {kind!r}")
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.shape != (8,):
        raise ValueError("expected 8 outcomes")
    return [float(sum(float(w) * m for w, m in zip(weights, outcomes)))
            for weights, _ in STABILIZERS[kind]]


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
# memory experiment
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
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must lie in [0, {trials}], "
                         f"got {failures}")
    z = 1.96
    p = failures / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


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
    with the index ``n_qubits``: ``memory_experiment`` appends a column of
    zeros at that index to the cumulative flips, so a syndrome bit is the
    XOR of the four gathered columns.

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
    return _DecodingGraph(n_qubits, n_stabs, members, cut, sink + 1,
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


def memory_experiment(distance: int, squeezing_db: float, rounds: int,
                      trials: int, seed: int) -> MemoryResult:
    """Phenomenological memory experiment on one check sector of the
    rotated surface code.

    Noise model: per round each data qubit accrues an independent Gaussian
    quadrature shift of variance 2 * (delta^2 / 2) per teleportation hop,
    two hops per round; each syndrome readout accrues one such shift.  Both
    are one noise scale per column of a trial's row, derived once per call.
    Shifts are binned on the sqrt(pi) grid; the residuals drive the analog
    matching weights.  The final readout round is noiseless.

    Trials are sampled and reduced to defects in blocks: the syndromes are
    the XOR of the cumulative flips gathered at each stabilizer's members
    (``_DecodingGraph.members``).  Only trials with defects reach the
    decoder, on a graph structure built once per (distance, rounds)
    (``_decoding_graph``).  A block gets its samples binned in one
    ``gkp_bin`` call and its decoded trials' flip weights in one
    ``_flip_weights`` call.  Its decoded trials are split into slices
    (``_slices``); each slice gets one block-diagonal graph
    (``_slice_graph``, on its rows of the block's weights) and one
    Dijkstra from all of its defects (``_slice_paths``), and then each
    trial is matched on its own (``decode_matching``).  NumPy integer
    counts are used, and echoed, as Python ints.
    """
    for name, value in (("distance", distance), ("rounds", rounds),
                        ("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if distance not in (3, 5, 7):
        raise ValueError("distance must be 3, 5 or 7")
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if trials < 1:
        raise ValueError("trials must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if (isinstance(squeezing_db, bool)
            or not isinstance(squeezing_db, numbers.Real)
            or not (math.isfinite(squeezing_db) and squeezing_db > 0)):
        raise ValueError(f"squeezing_db must be a finite level above 0 dB, "
                         f"got {squeezing_db!r}")
    # fixed-width NumPy counts would overflow in the products below
    distance, rounds, trials, seed = map(operator.index,
                                         (distance, rounds, trials, seed))

    delta_sq = 10 ** (-squeezing_db / 10)
    sigma = math.sqrt(2 * (delta_sq / 2) * 2)   # two hops per round
    sigma_m = math.sqrt(2 * (delta_sq / 2))     # one hop per readout

    dg = _decoding_graph(distance, rounds)
    n_q = rounds * dg.n_qubits
    # the noise scale of each column of a trial's row
    scale = np.repeat([sigma, sigma_m], [n_q, rounds * dg.n_stabs])

    rng = np.random.default_rng(seed)
    failures = 0
    for start in range(0, trials, _BLOCK_TRIALS):
        size = min(_BLOCK_TRIALS, trials - start)
        # rng.normal(0, s, n) draws s * standard_normal(n); each row holds
        # one trial's qubit shifts, then its readout shifts
        flips, resid = gkp_bin(rng.standard_normal((size, len(scale)))
                               * scale)

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
        defect_grid = syndromes.copy()
        defect_grid[:, 1:] ^= syndromes[:, :-1]
        defect_grid = defect_grid.reshape(size, -1)
        true_parity = cum[:, -1, dg.cut].sum(axis=1) % 2
        has_defects = defect_grid.any(axis=1)
        failures += int(true_parity[~has_defects].sum())
        decoded = np.flatnonzero(has_defects)
        decoded_parity = true_parity[decoded].tolist()
        # every decoded trial's defects, trial by trial
        owner, nodes = np.nonzero(defect_grid[decoded])
        counts = np.bincount(owner, minlength=len(decoded)).tolist()
        firsts = np.cumsum([0] + counts).tolist()
        node_list = nodes.tolist()
        # one weight row per decoded trial, as _DecodingGraph lays it out
        weights = _flip_weights(resid[decoded], scale)
        for lo, hi in _slices(counts, dg.n_nodes):
            graph = _slice_graph(weights[lo:hi], dg)
            paths = _slice_paths(graph, dg.crossing,
                                 nodes[firsts[lo]:firsts[hi]], counts[lo:hi])
            for i, (dist, bd, crossing) in enumerate(paths, lo):
                _, correction_parity = decode_matching(
                    node_list[firsts[i]:firsts[i + 1]], dist, bd, crossing)
                failures += decoded_parity[i] ^ correction_parity

    rate = failures / trials
    ci_low, ci_high = wilson_interval(failures, trials)
    return MemoryResult(distance, squeezing_db, rounds, trials, failures,
                        rate, ci_low, ci_high, seed)
