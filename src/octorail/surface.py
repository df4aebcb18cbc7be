"""Surface-code operation of the eight-mode macronode architecture.

This module pins down the measurement-basis presets that drive the surface
code, derives the teleportation identities of the data-qubit bases from an
exact Heisenberg-picture model of one macronode, and extracts stabilizer
values from homodyne outcomes.  The Monte Carlo memory experiment is in
:mod:`octorail.memory`.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .checks import require_choice
from .exact import (ExactCoeff, HALF_SQRT2, ONE, SQRT2, ZERO, _new,
                    _sub_mul, gauss_jordan)
# Unused here; perfbench reads the Monte Carlo under these names.  Its
# memory ops call surface.memory_experiment, and its tracer wraps
# octorail.surface's _flip_weights and decode_matching, and every alias of
# them by identity, so CI's traced smoke step sees surface.decoded_trials
# and surface.defects above 0.
from .memory import _flip_weights, decode_matching, memory_experiment
from .networks import eightsplitter_matrix, eightsplitter_sign_form

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
    require_choice("role", role, _PRESETS)
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
    the end, and every zero entry is ``ZERO``.
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
        self.rows = [[_new(p, q, d) if p or q else ZERO
                      for p, q in zip(p_row, q_row)]
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
            if isinstance(coeff, (int, Fraction)):
                coeff = ExactCoeff(coeff)  # equal to it, but hashed apart
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
_STEP_INV = tuple(step.inverse() for step in _STEP)


def _symbol_vector(coefficients: dict):
    """The symbol-space vector of a {symbol label: coefficient} dict."""
    vec = [ZERO] * _N_SYM
    for label, coeff in coefficients.items():
        vec[_sym_index(label)] = vec[_sym_index(label)] + coeff
    return vec


def _leftover(diff, rows_m, record):
    """diff - sum_d record[m_d] * rows_m[d], symbol by symbol, where diff is
    target - raw: what is left of a relation once the outcome record
    compensates it.  The zero entries of the rows are skipped."""
    left = list(diff)
    for d, row in enumerate(rows_m):
        coeff = record[f"m{d + 1}"]
        if coeff:
            for i, y in enumerate(row):
                if y:
                    left[i] = _sub_mul(left[i], coeff, y)
    return left


def _is_droppable(vec) -> bool:
    """True when the leftover is a lattice-trivial displacement: an integer
    multiple of ``_STEP`` on every symbol."""
    for c, step_inv in zip(vec, _STEP_INV):
        if c:
            n = c * step_inv
            if n.q or n.d != 1:
                return False
    return True


# ---- the record solver ---------------------------------------------------

def _column_reduce(matrix):
    """Integer column reduction of ``matrix``: (a, v) with a = matrix @ v
    for a unimodular v, where each row of a has at most one nonzero entry
    past the columns that the rows above it lead.

    Both come sparse.  Each row of a is (lead, entries): its nonzero
    (column, value) entries in column order, and the column it leads, which
    is its last entry, or None.  Each row of v is its nonzero (column,
    value) entries."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    a = [row[:] for row in matrix]
    v = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]
    leads = []
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
            leads.append(rank)
            rank += 1
        else:
            leads.append(None)

    def sparse(row):
        return tuple((c, e) for c, e in enumerate(row) if e)

    return (tuple((lead, sparse(row)) for lead, row in zip(leads, a)),
            tuple(map(sparse, v)))


def _back_substitute(a, v, rhs):
    """One integer solution of matrix @ z = rhs, given the sparse column
    reduction (a, v) of matrix from ``_column_reduce``, or None.

    Row by row, a @ y = rhs fixes y at the row's lead column, which no row
    above has set; a row without a lead must already hold.  Then
    z = v @ y."""
    y = [0] * len(v)
    for (lead, entries), b in zip(a, rhs):
        residual = b - sum(e * y[c] for c, e in entries)
        if lead is None:
            if residual:
                return None
            continue
        y[lead], rest = divmod(residual, entries[-1][1])
        if rest:
            return None
    return [sum(e * y[c] for c, e in row) for row in v]


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
    each such row to integers, and ``reduction`` is the sparse integer
    column reduction (``_column_reduce``) of the scaled parts, each row's
    rational part before its sqrt2 part.
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
    so the row transform is the reduced n block with each column
    multiplied by its step's inverse.  The integer rows are column-reduced
    once, into the sparse form that ``_back_substitute`` reads."""
    n_eq = len(_CONDITIONS)
    rows = [[rows_m[d][i] for d in range(8)]
            + [_STEP[i] if j == k else ZERO for j in range(n_eq)]
            for k, i in enumerate(_CONDITIONS)]
    aug, pivots = gauss_jordan(rows, 8)
    rank = len(pivots)
    transform = tuple(
        tuple((r, row[8 + k] * _STEP_INV[i]) for r, row in enumerate(aug)
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
    return _RecordFactor(tuple(pivots), transform, r_rows, tuple(n_dens),
                         _column_reduce(n_int))


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
            minus = -diff[i]
            for r, t in column:
                reduced[r] = _sub_mul(reduced[r], t, minus)
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
    return record if _is_droppable(_leftover(diff, rows_m, record)) else None


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
    target = _symbol_vector(rel.coefficients)
    leftover = _leftover([t - r for t, r in zip(target, raw)], rows_m,
                         rel.displacement)
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
    require_choice("role", role, _DATA_RELATIONS)
    rels = {r.output_label: r for r in _DATA_RELATIONS[role]}
    p5 = _symbol_vector(_P5_PRIME[role])
    for out in _REGROUPED[role]:
        regrouped = list(p5)
        idx = _sym_index(out)
        regrouped[idx] = regrouped[idx] + SQRT2
        direct = _symbol_vector(rels[out].coefficients)
        if not _is_droppable([a - b for a, b in zip(regrouped, direct)]):
            return False
    return True


def derive_quadrature_relations(role: str) -> list[RelationCheck]:
    """Re-derive the teleportation identities of a data basis from the exact
    macronode model and compare against the reference tables.

    Every check whose ``status`` is not ``"exact"`` carries a diff; callers
    that require bit-exact agreement should treat those as failures.
    """
    require_choice("role", role, _DATA_RELATIONS)
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
    require_choice("kind", kind, STABILIZERS)
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
    here; flagged as one consistent interpretation).  ``ValueError``
    unless ``outcomes`` has that shape.
    """
    require_choice("kind", kind, (*STABILIZERS, "double", "twist"))
    if kind in ("double", "twist"):
        try:
            first, second = outcomes
        except (TypeError, ValueError):
            raise ValueError("expected a pair of 8-outcome vectors") from None
        a = extract_stabilizer(first, "bulk-X")[0]
        b = extract_stabilizer(second, "bulk-X")[0]
        return [a * b]
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.shape != (8,):
        raise ValueError("expected 8 outcomes")
    return [float(sum(float(w) * m for w, m in zip(weights, outcomes)))
            for weights, _ in STABILIZERS[kind]]
