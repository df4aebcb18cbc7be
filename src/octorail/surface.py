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
(grid sqrt(pi)) even integer multiples are trivial.  Identities are
therefore checked modulo such terms ("droppable" below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import ExactCoeff, HALF_SQRT2, ONE, SQRT2, ZERO
from .networks import build_network, x_block

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


def _apply_hadamard(rows, wire):
    """pi/2 rotation x -> p, p -> -x on one wire (rows indexed by symbols)."""
    ix, ip = _xi(wire), _pi(wire)
    rows[ix], rows[ip] = rows[ip], [ZERO - e for e in rows[ix]]


def _apply_beamsplitter(rows, a, b):
    for ia, ib in ((_xi(a), _xi(b)), (_pi(a), _pi(b))):
        ra, rb = rows[ia], rows[ib]
        rows[ia] = [(ea - eb) * HALF_SQRT2 for ea, eb in zip(ra, rb)]
        rows[ib] = [(ea + eb) * HALF_SQRT2 for ea, eb in zip(ra, rb)]


class MacronodeModel:
    """Exact symbol-space Heisenberg rows of one measured macronode.

    ``rows[i]`` expresses the current quadrature of symbol index ``i`` as an
    exact linear combination of the 26 initial symbols.  Each Bell pair is
    built as: labelling Hadamard on the qunaught input of its Hadamard wire,
    balanced beamsplitter, then the physical pi/2 rotation on that same
    wire.  Local wires 1-8 carry the splitter-network output (what the
    detectors see); partner wires carry their post-Bell quadratures.
    """

    def __init__(self):
        rows = [[ONE if i == j else ZERO for j in range(_N_SYM)]
                for i in range(_N_SYM)]
        for local, partner, h_wire, orient in BELL_WIRING:
            # symbol labelling of the Fourier-invariant qunaught input
            _apply_hadamard(rows, h_wire)
            if orient:
                _apply_beamsplitter(rows, partner, local)
            else:
                _apply_beamsplitter(rows, local, partner)
            # the physical pi/2 rotation on one half of the Bell pair
            _apply_hadamard(rows, h_wire)
        s = x_block(build_network(2)).rows
        for block in (0, len(WIRES)):
            old = [rows[block + j] for j in range(8)]
            for d in range(8):
                rows[block + d] = [
                    sum((s[d][j] * old[j][i] for j in range(8)), ZERO)
                    for i in range(_N_SYM)]
        self.rows = rows

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


_MODEL = None


def macronode_model() -> MacronodeModel:
    global _MODEL
    if _MODEL is None:
        _MODEL = MacronodeModel()
    return _MODEL


# --------------------------------------------------------------------------
# reference teleportation identities of the data bases
# --------------------------------------------------------------------------

_ALLOWED = {ExactCoeff(0), ExactCoeff(1), ExactCoeff(-1), SQRT2,
            ZERO - SQRT2, HALF_SQRT2, ZERO - HALF_SQRT2,
            SQRT2 * 2, ZERO - SQRT2 * 2}


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
    c = {}
    for label, val in coeffs.items():
        if val == "s2":
            c[label] = SQRT2
        elif val == "-s2":
            c[label] = ZERO - SQRT2
        elif val == "hs":
            c[label] = HALF_SQRT2
        elif val == "-hs":
            c[label] = ZERO - HALF_SQRT2
        else:
            c[label] = ExactCoeff(val)
    disp = {f"m{d + 1}": ExactCoeff(0, Fraction(record[d], 2))
            for d in range(8)}
    return QuadratureRelation(out, c, disp)


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
    _rel("x1'", {"x1": -1, "x6'": "hs", "x7'": "hs", "p5": "s2",
                 "p6": "-hs", "p7": "-hs", "p8": "s2"},
         [0, 1, 1, -2, 0, 1, 1, 2]),  # printed [2, 1, 1, 0, -2, 1, 1, 0]
    _rel("p1'", {"p1": -1, "x2'": "-hs", "x3'": "-hs", "p2": "hs",
                 "p3": "hs", "p4": "-s2", "p1'": "s2"},
         [0, 1, 1, 2, 0, -1, -1, 2]),  # printed [2, -1, -1, 0, 2, 1, 1, 0]
    _rel("x2'", {"x2'": "hs", "p3": "hs"}, [0] * 8),
    _rel("p2'", {"p2'": "s2", "x1": 1},
         [-1, -1, 0, 0, -1, -1, 0, 0]),  # printed [0, 0, -1, -1, 0, 0, -1, -1]
    _rel("x3'", {"x3'": "hs", "p2": "hs"}, [0] * 8),
    _rel("p3'", {"p3'": "s2", "x1": 1},
         [-1, 0, -1, 0, -1, 0, -1, 0]),  # printed [0, -1, 0, -1, 0, -1, 0, -1]
    _rel("x6'", {"x6'": "hs", "p7": "hs"}, [0] * 8),
    _rel("p6'", {"p1": 1, "x2'": "hs", "x3'": "hs", "p6'": "s2",
                 "p2": "-hs", "p3": "-hs", "p4": "s2"},
         [-1, -1, 0, -2, 1, 1, 0, -2]),  # printed [-2, 0, 1, 1, -2, 0, -1, -1]
    _rel("x7'", {"x7'": "hs", "p6": "hs"}, [0] * 8),
    _rel("p7'", {"p1": 1, "x2'": "hs", "x3'": "hs", "p7'": "s2",
                 "p2": "-hs", "p3": "-hs", "p4": "s2"},
         [-1, 0, -1, -2, 1, 0, 1, -2]),  # printed [-2, 1, 0, 1, -2, -1, 0, -1]
)

#: Intermediate quadrature used by the regrouped forms of p6' and p7' in the
#: even basis ("p5 prime"): p6'' = sqrt2*p6' + p5', likewise for p7''.
EVEN_P5_PRIME = {"p1": ExactCoeff(1), "x2'": HALF_SQRT2, "x3'": HALF_SQRT2,
                 "p2": ZERO - HALF_SQRT2, "p3": ZERO - HALF_SQRT2,
                 "p5": SQRT2}

#: Identities of the odd data basis.  The printed records of p2' and p3'
#: carry (m1, m8) = (2, -2), as x1' does.  Only the p-detectors 1 and 8 see
#: the data quadrature p1, each through S with weight sqrt2/4, so such a
#: record supplies no p1; p2' and p3' (like p1', which shares their p5'
#: part and prints (2, 2)) need an odd multiple of it.  No relabelling or
#: per-detector sign convention for the whole table repairs this.  Both
#: records below use m1 = -2 (equivalently m8 = +2) and keep the printed
#: list in the comment.
ODD_DATA_RELATIONS = (
    _rel("x1'", {"x1": -1, "x2'": "-hs", "x3'": "-hs", "p2": "hs",
                 "p3": "hs", "p5": "s2", "p8": "s2"},
         [2, 1, 1, 0, 0, 1, 1, -2]),
    _rel("p1'", {"p1": -1, "x6'": "hs", "x7'": "hs", "p4": "-s2",
                 "p6": "-hs", "p7": "-hs", "p1'": "s2"},
         [2, -1, -1, 0, 0, 1, 1, 2]),
    _rel("x2'", {"x2'": "hs", "p3": "hs"}, [0] * 8),
    _rel("p2'", {"p1": -1, "p2'": "s2", "x6'": "hs", "x7'": "hs",
                 "p4": "-s2", "p6": "-hs", "p7": "-hs"},
         [-2, 0, -1, -1, 1, 1, 0, -2]),  # printed [2, 0, -1, -1, 1, 1, 0, -2]
    _rel("x3'", {"x3'": "hs", "p2": "hs"}, [0] * 8),
    _rel("p3'", {"p1": -1, "p3'": "s2", "x6'": "hs", "x7'": "hs",
                 "p4": "-s2", "p6": "-hs", "p7": "-hs"},
         [-2, -1, 0, -1, 1, 0, 1, -2]),  # printed [2, -1, 0, -1, 1, 0, 1, -2]
    _rel("x6'", {"x6'": "hs", "p7": "hs"}, [0] * 8),
    _rel("p6'", {"p6'": "s2", "x1": -1}, [0, 0, 1, 1, 1, 1, 0, 0]),
    _rel("x7'", {"x7'": "hs", "p6": "hs"}, [0] * 8),
    _rel("p7'", {"p7'": "s2", "x1": -1}, [0, 1, 0, 1, 1, 0, 1, 0]),
)

#: Intermediate quadrature of the odd-basis regroupings:
#: p2'' = sqrt2*p2' + p5', p3'' = sqrt2*p3' + p5'.
ODD_P5_PRIME = {"p1": ExactCoeff(-1), "x6'": HALF_SQRT2, "x7'": HALF_SQRT2,
                "p4": ZERO - SQRT2, "p6": ZERO - HALF_SQRT2,
                "p7": ZERO - HALF_SQRT2}

_DATA_RELATIONS = {"even-data": EVEN_DATA_RELATIONS,
                   "odd-data": ODD_DATA_RELATIONS}
_P5_PRIME = {"even-data": EVEN_P5_PRIME, "odd-data": ODD_P5_PRIME}
_REGROUPED = {"even-data": ("p6'", "p7'"), "odd-data": ("p2'", "p3'")}

_DATA_X = _sym_index("x1")
_DATA_P = _sym_index("p1")
_QUNAUGHT = tuple(i for i in range(_N_SYM) if i not in (_DATA_X, _DATA_P))


def _target_vector(rel: QuadratureRelation):
    vec = [ZERO] * _N_SYM
    for label, coeff in rel.coefficients.items():
        vec[_sym_index(label)] = vec[_sym_index(label)] + coeff
    return vec


def _is_droppable(vec) -> bool:
    """True when the leftover is a lattice-trivial displacement: multiples
    of sqrt2 on qunaught symbols with integer multiplier, even integers on
    the data symbols."""
    for i in _QUNAUGHT:
        if vec[i].a != 0 or vec[i].b.denominator != 1:
            return False
    for i in (_DATA_X, _DATA_P):
        if vec[i].b != 0 or vec[i].a.denominator != 1 or vec[i].a % 2 != 0:
            return False
    return True


# ---- exact rational linear algebra for the record solver -----------------

def _rational_solve(matrix, rhs):
    """Gauss-Jordan over Q; returns (particular solution, null basis) or
    (None, None) for an inconsistent system."""
    n_rows, n_cols = len(matrix), len(matrix[0])
    aug = [row[:] + [r] for row, r in zip(matrix, rhs)]
    pivots = []
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = Fraction(1) / aug[rank][col]
        aug[rank] = [e * inv for e in aug[rank]]
        for i in range(n_rows):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    if any(aug[i][n_cols] for i in range(rank, n_rows)):
        return None, None
    sol = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        sol[c] = aug[r][n_cols]
    null = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -aug[r][free]
        null.append(vec)
    return sol, null


def _integer_solve(matrix, rhs):
    """One integer solution of matrix @ z = rhs (integer entries), or None."""
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
    y = [0] * n_cols
    used = [False] * n_cols
    for i in range(n_rows):
        residual = rhs[i] - sum(a[i][c] * y[c] for c in range(n_cols))
        lead = next((c for c in range(n_cols) if a[i][c] and not used[c]),
                    None)
        if lead is None:
            if residual != 0:
                return None
            continue
        if residual % a[i][lead] != 0:
            return None
        y[lead] = residual // a[i][lead]
        used[lead] = True
    return [sum(v[i][c] * y[c] for c in range(n_cols)) for i in range(n_cols)]


def _solve_displacement(target, raw, rows_m):
    """Exact outcome coefficients r (in Q(sqrt2)) such that
    target = raw + sum_d r_d * m_d modulo lattice-trivial terms; None if no
    such record exists."""
    diff = [t - r for t, r in zip(target, raw)]
    # unknowns: u_d + v_d*sqrt2 per detector (16 rationals)
    matrix, rhs = [], []
    for i in _QUNAUGHT:  # rational parts must vanish exactly
        matrix.append([rows_m[d][i].a for d in range(8)]
                      + [2 * rows_m[d][i].b for d in range(8)])
        rhs.append(diff[i].a)
    for i in (_DATA_X, _DATA_P):  # sqrt2 parts on the data must vanish
        matrix.append([rows_m[d][i].b for d in range(8)]
                      + [rows_m[d][i].a for d in range(8)])
        rhs.append(diff[i].b)
    sol, null = _rational_solve(matrix, rhs)
    if sol is None:
        return None

    def lattice_coords(vec):
        # integrality conditions: sqrt2 part on qunaughts, half the rational
        # part on the data symbols
        out = [diff[i].b - sum(vec[d] * rows_m[d][i].b
                               + vec[8 + d] * rows_m[d][i].a
                               for d in range(8)) for i in _QUNAUGHT]
        for i in (_DATA_X, _DATA_P):
            out.append((diff[i].a - sum(vec[d] * rows_m[d][i].a
                                        + 2 * vec[8 + d] * rows_m[d][i].b
                                        for d in range(8))) / 2)
        return out

    base = lattice_coords(sol)
    if not null:
        if all(c.denominator == 1 for c in base):
            return _as_record(sol)
        return None
    shift = []
    zero = [Fraction(0)] * len(null[0])
    for k, basis_vec in enumerate(null):
        probe = [s + b for s, b in zip(sol, basis_vec)]
        shift.append([a - b for a, b in
                      zip(lattice_coords(probe), base)])
    n_lat = len(base)
    n_free = len(null)
    # left-null rows of the (n_lat x n_free) shift matrix give the
    # obstruction conditions L z = L base with integer z
    aug = [[shift[k][i] for k in range(n_free)]
           + [Fraction(1) if j == i else Fraction(0) for j in range(n_lat)]
           for i in range(n_lat)]
    rank = 0
    for col in range(n_free):
        pivot = next((i for i in range(rank, n_lat) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = Fraction(1) / aug[rank][col]
        aug[rank] = [e * inv for e in aug[rank]]
        for i in range(n_lat):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        rank += 1
    l_int, m_int = [], []
    for row in aug[rank:]:
        lrow = row[n_free:]
        mval = sum(a * b for a, b in zip(lrow, base))
        den = 1
        for e in lrow + [mval]:
            den = den * e.denominator // math.gcd(den, e.denominator)
        if (mval * den).denominator != 1:
            return None
        l_int.append([int(e * den) for e in lrow])
        m_int.append(int(mval * den))
    z = _integer_solve(l_int, m_int)
    if z is None:
        return None
    t, _ = _rational_solve([[shift[k][i] for k in range(n_free)]
                            for i in range(n_lat)],
                           [Fraction(zi) - b for zi, b in zip(z, base)])
    if t is None:
        return None
    final = [sol[i] + sum(tk * null[k][i] for k, tk in enumerate(t))
             for i in range(16)]
    check = [diff[i] - sum((ExactCoeff(final[d], final[8 + d])
                            * rows_m[d][i] for d in range(8)), ZERO)
             for i in range(_N_SYM)]
    return _as_record(final) if _is_droppable(check) else None


def _as_record(vec):
    return {f"m{d + 1}": ExactCoeff(vec[d], vec[8 + d]) for d in range(8)}


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
    compensated = list(raw)
    for d in range(8):
        coeff = rel.displacement[f"m{d + 1}"]
        compensated = [c + coeff * y for c, y in zip(compensated, rows_m[d])]
    leftover = [t - c for t, c in zip(target, compensated)]
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
    p5 = [ZERO] * _N_SYM
    for label, coeff in _P5_PRIME[role].items():
        p5[_sym_index(label)] = p5[_sym_index(label)] + coeff
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

def _s_rows():
    return x_block(build_network(2)).rows


def stabilizer_combination(kind: str):
    """Outcome weight vectors and the induced input-quadrature coefficient
    vectors for the printed stabilizer measurements, by exact row
    arithmetic on the splitter transfer matrix.

    Returns a list of (outcome_weights, input_coefficients) pairs, both
    length-8 tuples of ExactCoeff.
    """
    s = _s_rows()
    half = Fraction(1, 2)

    def combo(weights):
        weights = [Fraction(w) for w in weights]
        inputs = tuple(sum((w * s[d][j] for d, w in enumerate(weights)
                            if w), ZERO) for j in range(8))
        return tuple(ExactCoeff(w) for w in weights), inputs

    if kind == "bulk-X":
        return [combo([0, 0, 0, 0, -1, 0, 0, 1])]
    if kind == "boundary-V":
        return [combo([0, 0, 0, 0, -half, half, -half, half]),
                combo([0, 0, 0, 0, -half, -half, half, half])]
    if kind == "boundary-H":
        return [combo([0, half, -half, 0, -half, 0, 0, half]),
                combo([0, -half, half, 0, -half, 0, 0, half])]
    raise ValueError(f"unknown stabilizer kind: {kind!r}")


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
    combos = stabilizer_combination(kind)
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.shape != (8,):
        raise ValueError("expected 8 outcomes")
    return [float(sum(float(w) * m for w, m in zip(weights, outcomes)))
            for weights, _ in combos]


# --------------------------------------------------------------------------
# GKP binning
# --------------------------------------------------------------------------

def gkp_bin(value: float):
    """Bin a quadrature value to the sqrt(pi) grid.

    Returns (parity_bit, analog_residual) with the residual in
    [-sqrt(pi)/2, sqrt(pi)/2).
    """
    n = math.floor(value / SQRT_PI + 0.5)
    return n % 2, value - n * SQRT_PI


@dataclass(frozen=True)
class SyndromeRecord:
    round: int
    stabilizer_id: int
    parity_bit: int
    analog_residual: float

    def __post_init__(self):
        if not -SQRT_PI / 2 <= self.analog_residual < SQRT_PI / 2:
            raise ValueError("residual outside the fundamental cell")


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
    d = distance
    qubit_id = {(r, c): r * d + c for r in range(d) for c in range(d)}
    stabs = []
    for r in range(-1, d):
        for c in range(d - 1):
            if (r + c) % 2 != 0:
                continue
            members = [qubit_id[(rr, cc)]
                       for rr in (r, r + 1) for cc in (c, c + 1)
                       if 0 <= rr < d]
            if members:
                stabs.append(tuple(members))
    # stabilizers adjacent to each qubit (1 or 2 in this sector)
    adjacency = {q: [] for q in qubit_id.values()}
    for s_id, members in enumerate(stabs):
        for q in members:
            adjacency[q].append(s_id)
    cut_qubits = {qubit_id[(r, 0)] for r in range(d)}
    return stabs, adjacency, cut_qubits


def _flip_weights(residuals: np.ndarray, sigma: float) -> np.ndarray:
    """Matching weight of a flip with the observed grid residual: the log
    likelihood ratio of 'no flip' against 'flip', floored at 1e-6."""
    shifts = np.arange(-3, 4) * SQRT_PI
    u = residuals[..., None] + shifts
    dens = np.exp(-0.5 * (u / sigma) ** 2)
    even = dens[..., ::2].sum(axis=-1)
    odd = dens[..., 1::2].sum(axis=-1)
    with np.errstate(divide="ignore"):
        w = np.log(even) - np.log(odd)
    return np.maximum(w, 1e-6)


def _min_weight_pairing(weight_matrix):
    """Exact minimum-weight perfect matching on an even number of nodes,
    given a dense symmetric weight matrix; returns the set of index pairs."""
    import networkx as nx

    n = len(weight_matrix)
    if n % 2:
        raise ValueError("perfect matching needs an even node count")
    if n == 0:
        return set()
    if n <= 12:
        return _exhaustive_pairing(weight_matrix)
    graph = nx.Graph()
    graph.add_weighted_edges_from((i, j, weight_matrix[i][j])
                                  for i in range(n) for j in range(i + 1, n))
    return {tuple(sorted(e)) for e in
            nx.min_weight_matching(graph)}


def _exhaustive_pairing(weight_matrix):
    n = len(weight_matrix)
    best = [math.inf, None]

    def recurse(remaining, total, pairs):
        if total >= best[0]:
            return
        if not remaining:
            best[0], best[1] = total, list(pairs)
            return
        first = remaining[0]
        for k, other in enumerate(remaining[1:], start=1):
            pairs.append((first, other))
            recurse(remaining[1:k] + remaining[k + 1:],
                    total + weight_matrix[first][other], pairs)
            pairs.pop()

    recurse(list(range(n)), 0.0, [])
    return {tuple(sorted(p)) for p in best[1]}


def decode_matching(defects, graph, boundary_dist, boundary_path):
    """Minimum-weight matching of space-time defects.

    ``defects`` lists node ids of the space-time graph; ``graph`` is a
    scipy-ready sparse adjacency (weights); ``boundary_dist[v]`` and
    ``boundary_path[v]`` give each node's cheapest connection to the open
    boundary and that path's logical-cut crossing parity.  Returns
    (matched pairs, total cut-crossing parity of the correction).

    The cut runs along the open boundary (see ``_rotated_layout``): every
    cut qubit belongs to one stabilizer and so is a boundary edge, never a
    graph edge.  A path between two defects therefore never crosses it,
    and only boundary matches add to the parity.
    """
    from scipy.sparse.csgraph import dijkstra

    if not defects:
        return [], 0
    dist = dijkstra(graph, indices=defects)
    k = len(defects)
    big = 1e12
    # defects 0..k-1, then one boundary twin per defect; each defect reaches
    # only its own twin, and the twins pair freely at zero cost.  The
    # pairing reads the upper triangle only.
    weights = np.zeros((2 * k, 2 * k))
    weights[:k, :k] = np.minimum(dist[:, defects], big)
    twins = weights[:k, k:]
    twins[...] = big
    twins.flat[::k + 1] = boundary_dist[defects]
    pairs = _min_weight_pairing(weights.tolist())
    crossings = 0
    matched = []
    for a, b in pairs:  # each pair is sorted, a < b
        if a >= k:
            continue
        if b >= k:  # defect a matched to the boundary
            crossings ^= int(boundary_path[defects[a]])
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


def wilson_interval(failures: int, trials: int, z: float = 1.96):
    if trials == 0:
        raise ValueError("trials must be positive")
    p = failures / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


#: Trials sampled, binned and reduced to defects together.  It bounds the
#: memory of one block at any trial count and does not change results: the
#: random stream is drawn in the same order whatever the block size.
_BLOCK_TRIALS = 256


@dataclass(frozen=True)
class _DecodingGraph:
    """Static structure of the space-time matching graph.

    Node ``layer * n_stabs + s`` is stabilizer ``s`` in layer ``layer``.  A
    trial supplies its edge weights as one row: the flip weight of every
    (round, qubit), then of every (round, stabilizer readout), then +inf.
    """
    n_nodes: int
    indices: np.ndarray  # CSR structure of the symmetric adjacency
    indptr: np.ndarray
    data_col: np.ndarray  # weight-row column of each CSR entry
    anchor_node: np.ndarray  # nodes with edges to the open boundary
    anchor_col: np.ndarray  # their boundary edges' weight columns, in scan
    # order, padded with the +inf column
    anchor_crossing: np.ndarray  # whether each boundary edge crosses the cut


def _decoding_graph(stabs, adjacency, cut_qubits, rounds) -> _DecodingGraph:
    from scipy.sparse import csr_matrix

    n_stabs = len(stabs)
    n_qubits = len(adjacency)
    n_nodes = (rounds + 1) * n_stabs
    src, dst, col = [], [], []
    boundary = {}  # anchor node -> [(weight column, crossing)]
    for layer in range(rounds):  # space edges exist on noisy layers only
        base = layer * n_stabs
        for q in range(n_qubits):
            stabs_of_q = adjacency[q]
            if len(stabs_of_q) == 2:
                src.append(base + stabs_of_q[0])
                dst.append(base + stabs_of_q[1])
                col.append(layer * n_qubits + q)
            elif len(stabs_of_q) == 1:
                boundary.setdefault(base + stabs_of_q[0], []).append(
                    (layer * n_qubits + q, q in cut_qubits))
        for s_id in range(n_stabs):
            src.append(base + s_id)
            dst.append(base + n_stabs + s_id)
            col.append(rounds * n_qubits + base + s_id)
    # no two edges join the same nodes, so each CSR entry holds one slot
    n_edges = len(col)
    slots = csr_matrix((np.arange(1.0, 2 * n_edges + 1),
                        (np.array(src + dst), np.array(dst + src))),
                       shape=(n_nodes, n_nodes))
    data_col = np.array(col + col)[slots.data.astype(np.intp) - 1]

    pad_col = rounds * (n_qubits + n_stabs)
    width = max(len(edges) for edges in boundary.values())
    anchor_col = np.full((len(boundary), width), pad_col)
    anchor_crossing = np.zeros((len(boundary), width), dtype=bool)
    for i, edges in enumerate(boundary.values()):
        anchor_col[i, :len(edges)], anchor_crossing[i, :len(edges)] = zip(
            *edges)
    return _DecodingGraph(n_nodes, slots.indices, slots.indptr,
                          data_col, np.array(list(boundary)), anchor_col,
                          anchor_crossing)


def _boundary_pass(graph, weight_row, dg: _DecodingGraph):
    """Each node's cheapest connection to the open boundary and that path's
    cut-crossing parity: (boundary_dist, boundary_path), +inf and 0 where
    no anchor is reachable.

    An anchor's boundary edge is its lightest candidate.  Ties go to the
    first candidate in scan order and to the first anchor, as in a scan
    that keeps a value only when it is strictly lower.  Flip weights are
    finite on any trial that has defects: a NaN weight needs a residual
    beyond ~38 sigma, and at so small a sigma no shift reaches sqrt(pi)/2.
    """
    from scipy.sparse.csgraph import dijkstra

    cand = weight_row[dg.anchor_col]
    best = cand.argmin(axis=1)  # argmin returns the first minimum
    total = (dijkstra(graph, indices=dg.anchor_node)
             + cand.min(axis=1)[:, None])
    k = total.argmin(axis=0)
    boundary_dist = total[k, np.arange(dg.n_nodes)]
    # no graph edge crosses the cut (see decode_matching): the path's parity
    # is that of its boundary edge
    boundary_path = np.where(boundary_dist < np.inf,
                             dg.anchor_crossing[k, best[k]], 0)
    return boundary_dist, boundary_path


def _bin(shifts):
    """Flip bits and residuals of quadrature shifts on the sqrt(pi) grid."""
    n_grid = np.floor(shifts / SQRT_PI + 0.5)
    flips = (n_grid.astype(np.int64) % 2).astype(bool)
    return flips, shifts - n_grid * SQRT_PI


def memory_experiment(distance: int, squeezing_db: float, rounds: int,
                      trials: int, seed: int) -> MemoryResult:
    """Phenomenological memory experiment on one check sector of the
    rotated surface code.

    Noise model: per round each data qubit accrues an independent Gaussian
    quadrature shift of variance 2 * (delta^2 / 2) per teleportation hop,
    two hops per round; each syndrome readout accrues one such shift.
    Shifts are binned on the sqrt(pi) grid; the residuals drive the analog
    matching weights.  The final readout round is noiseless.

    Trials are sampled and reduced to defects in blocks; only trials with
    defects reach the decoder.
    """
    if distance not in (3, 5, 7):
        raise ValueError("distance must be 3, 5 or 7")
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not (math.isfinite(squeezing_db) and squeezing_db > 0):
        raise ValueError(f"squeezing_db must be a finite level above 0 dB, "
                         f"got {squeezing_db}")
    from scipy.sparse import csr_matrix

    delta_sq = 10 ** (-squeezing_db / 10)
    sigma = math.sqrt(2 * (delta_sq / 2) * 2)   # two hops per round
    sigma_m = math.sqrt(2 * (delta_sq / 2))     # one hop per readout

    stabs, adjacency, cut_qubits = _rotated_layout(distance)
    n_stabs = len(stabs)
    n_qubits = distance * distance
    n_q = rounds * n_qubits
    dg = _decoding_graph(stabs, adjacency, cut_qubits, rounds)
    incidence = np.zeros((n_qubits, n_stabs), dtype=np.uint8)
    for s_id, members in enumerate(stabs):
        incidence[list(members), s_id] = 1
    cut_list = sorted(cut_qubits)

    rng = np.random.default_rng(seed)
    failures = 0
    for start in range(0, trials, _BLOCK_TRIALS):
        size = min(_BLOCK_TRIALS, trials - start)
        # rng.normal(0, s, n) draws s * standard_normal(n); each row holds
        # one trial's qubit shifts, then its readout shifts
        z = rng.standard_normal((size, n_q + rounds * n_stabs))
        flips, resid = _bin(sigma * z[:, :n_q])
        m_flips, m_resid = _bin(sigma_m * z[:, n_q:])

        cum = np.logical_xor.accumulate(
            flips.reshape(size, rounds, n_qubits), axis=1)
        parity = ((cum.view(np.uint8) @ incidence) & 1).astype(bool)
        syndromes = np.concatenate(
            [parity ^ m_flips.reshape(size, rounds, n_stabs),
             parity[:, -1:]], axis=1)
        defect_grid = syndromes.copy()
        defect_grid[:, 1:] ^= syndromes[:, :-1]
        defect_grid = defect_grid.reshape(size, -1)
        true_parity = cum[:, -1, cut_list].sum(axis=1) % 2
        has_defects = defect_grid.any(axis=1)
        failures += int(true_parity[~has_defects].sum())
        for trial in np.flatnonzero(has_defects):
            # weights per trial: for a whole block, the (trials, columns, 7)
            # temporaries of _flip_weights would dominate peak memory
            weight_row = np.concatenate(
                [_flip_weights(resid[trial], sigma),
                 _flip_weights(m_resid[trial], sigma_m), [np.inf]])
            graph = csr_matrix((weight_row[dg.data_col], dg.indices,
                                dg.indptr), shape=(dg.n_nodes, dg.n_nodes))
            boundary_dist, boundary_path = _boundary_pass(graph, weight_row,
                                                          dg)
            defects = np.flatnonzero(defect_grid[trial]).tolist()
            _, correction_parity = decode_matching(
                defects, graph, boundary_dist, boundary_path)
            failures += int(true_parity[trial]) ^ correction_parity

    rate = failures / trials
    ci_low, ci_high = wilson_interval(failures, trials)
    return MemoryResult(distance, squeezing_db, rounds, trials, failures,
                        rate, ci_low, ci_high, seed)
