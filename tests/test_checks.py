import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import octorail
from octorail import (ExactCoeff, ExactMatrix, GaussianState, Grid,
                      GridWavefunction, LatticeSpec, MacronodeGraph,
                      MeasurementBasis, ModePermutation, SplitterNetwork,
                      SqueezingLevel, SymplecticMap, build_lattice,
                      build_network, cancel_layer, decompose_rpr, default_grid,
                      extract_stabilizer, fine_grid, identity_map,
                      induced_gate, knill_step, make_beamsplitter, make_cz,
                      make_qunaught, memory_experiment, solve_angles,
                      solve_exact, square_encoding, surface_layout)
from octorail.checks import require_choice, require_real
from octorail.gkp import overlap
from octorail.phasespace import apply, homodyne_condition
from octorail.surface import QuadratureRelation, macronode_model


@pytest.mark.parametrize("value", [0.25, -3, np.float32(1.5), np.int64(-2),
                                   np.float64(7.0), Fraction(1, 3)])
def test_require_real_accepts_finite_reals(value):
    assert require_real("x", value) is None
    assert require_real("x", abs(value), positive=True) is None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True,
                                   np.bool_(True), "1.0", None, 1j,
                                   np.float64(math.nan)])
def test_require_real_names_what_it_refuses(value):
    got = re.escape(repr(value))
    with pytest.raises(ValueError, match=f"^x must be finite, got {got}$"):
        require_real("x", value)
    with pytest.raises(ValueError,
                       match=f"^x must be finite and positive, got {got}$"):
        require_real("x", value, positive=True)


@pytest.mark.parametrize("value", [0, 0.0, -1e-300, np.float64(-2.0)])
def test_require_real_positive_refuses_zero_and_below(value):
    assert require_real("x", value) is None
    got = re.escape(repr(value))
    with pytest.raises(ValueError,
                       match=f"^x must be finite and positive, got {got}$"):
        require_real("x", value, positive=True)


def test_require_choice_returns_the_value_or_lists_the_choices():
    assert require_choice("kind", "b", ("a", "b")) == "b"
    assert require_choice("d", 5, {3: "x", 5: "y"}) == 5
    with pytest.raises(ValueError,
                       match=r"^d must be one of 3, 5, 7, got 2$"):
        require_choice("d", 2, (3, 5, 7))
    with pytest.raises(ValueError,
                       match=r"^kind must be one of 'a', 'b', got \['a'\]$"):
        require_choice("kind", ["a"], {"a": 1, "b": 2})
    # an array equals a choice elementwise; its type matches none of them
    for value in (np.array(["a"]), np.array(["a", "b"])):
        got = re.escape(repr(value))
        with pytest.raises(ValueError,
                           match=f"^kind must be one of 'a', 'b', got {got}$"):
            require_choice("kind", value, ("a", "b"))


# --------------------------------------------------------------------------
# one sweep of the exported surface
# --------------------------------------------------------------------------

BAD_VALUES = {
    "float": (True, math.nan, math.inf, -math.inf, "1"),
    "int": (True, math.nan, math.inf, -math.inf, "1", 1.5),
    "str": ("nonsense", 1, True),
}

_SPEC = LatticeSpec(4, 3, 2, 100)
_WF = make_qunaught(0.1)

#: One accepted call, as keyword arguments, of each exported callable (a
#: classmethod as '<class>.<method>') that has a parameter annotated int,
#: float or str.
VALID_CALLS = {
    "Encoding": dict(kind="square", u_g=identity_map()),
    "ExactCoeff.from_half_power": dict(numer=-3, k=1),
    "ExactMatrix.identity": dict(n=2),
    "GaussianState": dict(n_modes=1, mean=np.zeros(2),
                          covariance=0.5 * np.eye(2)),
    "GaussianState.vacuum": dict(n_modes=1),
    "Grid": dict(dx=0.1, half_steps=10),
    "LatticeSpec": dict(n=4, m=3, k=2, horizon=100),
    "MacronodeGraph.from_json": dict(
        text=build_lattice(LatticeSpec(3, 3, 1, 9)).to_json()),
    "SplitterNetwork": dict(n_modes=2, layers=(((0, 1),),),
                            level_tags=("DRL",)),
    "SqueezingLevel": dict(delta_sq=0.1, db=10.0),
    "SymplecticMap": dict(n_modes=1, matrix=np.eye(2)),
    "basis_preset": dict(role="even-data"),
    "build_network": dict(level=1),
    "db_conversion": dict(value=0.1, direction="to-db"),
    "derive_quadrature_relations": dict(role="odd-data"),
    "displacement_mu": dict(m1=0.1, m2=0.2, theta1=0.3, theta2=1.2),
    "extract_stabilizer": dict(outcomes=[0.0] * 8, kind="bulk-X"),
    "heterodyne_magic_probe": dict(delta_sq=0.1, samples=1, seed=0),
    "identity_map": dict(n_modes=1),
    "index_to_coords": dict(j=5, spec=_SPEC),
    "is_allowed": dict(p=ModePermutation(tuple(range(1, 9))),
                       implementation="sets"),
    "knill_oracle": dict(input_wf=_WF, delta_sq=0.1, m1=0.1, m2=0.2),
    "knill_step": dict(input_wf=_WF, delta_sq=0.1, seed=0),
    "layer_matrix": dict(layer=((0, 1),), n_modes=2),
    "magic_probe_single": dict(delta_sq=0.1, alpha=0.5 + 0.5j),
    "make_beamsplitter": dict(phi=0.3, mode_j=0, mode_k=1, n_modes=2),
    "make_cz": dict(g=0.5, mode_j=0, mode_k=1, n_modes=2),
    "make_gaussian_wavepacket": dict(grid=default_grid(), x0=0.1, p0=0.2,
                                     variance=0.5),
    "make_qunaught": dict(delta_sq=0.1),
    "make_rotation": dict(theta=0.3, mode=0, n_modes=1),
    "make_shear": dict(sigma=0.3, mode=0, n_modes=1),
    "make_squeeze": dict(t=1.5, mode=0, n_modes=1),
    "memory_experiment": dict(distance=3, squeezing_db=10.0, rounds=1,
                              trials=1, seed=0),
    "neighbors": dict(j=5, spec=_SPEC),
    "p_error": dict(delta_sq=0.1),
    "p_error_tail_oracle": dict(delta_sq=0.1),
    "rectangular_encoding": dict(alpha=1.5),
    "solve_angles": dict(target=identity_map(), arity=1, n_starts=0, seed=0),
    "stabilizer_combination": dict(kind="boundary-V"),
    "teleported_gate_v": dict(theta1=0.3, theta2=1.2),
    "transform_angles": dict(theta1=0.3, theta2=1.2,
                             encoding=square_encoding()),
    "verify_regrouping": dict(role="even-data"),
    "wilson_interval": dict(failures=1, trials=10),
    "wiring_variant": dict(kind="multiplexer"),
}

#: Parameters refused under another name than their own.
REFUSED_AS = {"db_conversion.value": "delta_sq|db"}

#: Callables and parameters the sweep leaves out, each with its reason.  A
#: parameter with no annotation, or one annotated as an array or a complex
#: number, must be listed here, so that no scalar slips past the sweep.
EXEMPT = {
    "AngleSolution": "result record built by solve_angles",
    "LogicalAction": "result record built by logical_action",
    "MagicProbeResult": "result record built by heterodyne_magic_probe",
    "MemoryResult": "result record built by memory_experiment",
    "DegenerateMeasurementError": "exception class",
    "NonImplementableGateError": "exception class",
    "Encoding.kind": "free-text label of the encoding",
    "MeasurementBasis.role": "free-text label; basis_preset checks roles",
    "ExactCoeff.a": "rational part, converted by Fraction",
    "ExactCoeff.b": "rational part, converted by Fraction",
    "ExactMatrix.rows": "array of Q(sqrt2) entries",
    "GaussianState.mean": "array",
    "GaussianState.covariance": "array",
    "GridWavefunction.amplitudes": "array, checked against the grid size",
    "ModePermutation.from_cycles.text": (
        "a string it cannot parse reads 'cannot parse cycle notation', "
        "which tests/test_cli.py pins"),
    "SymplecticMap.matrix": "array, checked against the mode count",
    "TeleportedGate.displacement_rule": "array built by induced_gate",
    "cancel_layer.angles": "array of angles, counted against the modes",
    "coords_to_index.coords": "array of coordinates, each by require_int",
    "extract_stabilizer.outcomes": "array of outcomes, shape-checked",
    "gkp_bin.value": "float or array; refuses values that are not finite",
    "induced_gate.angles": "array of angles, each by require_real",
    "induced_gate.wiring": "array of mode pairs, checked as a partition",
    "layer_matrix.layer": "array of mode pairs",
    "magic_probe_single.alpha": "complex amplitude, checked finite",
    "transform_basis.angles": "array of angles",
}


def _exports():
    """Every exported callable by name, and every public classmethod of an
    exported class as '<class>.<method>'."""
    exports = {name: obj for name, obj in vars(octorail).items()
               if not name.startswith("_") and callable(obj)}
    for name, cls in list(exports.items()):
        if inspect.isclass(cls):
            exports.update({f"{name}.{attr}": getattr(cls, attr)
                            for attr, raw in vars(cls).items()
                            if isinstance(raw, classmethod)
                            and not attr.startswith("_")})
    return exports


def _kind(param) -> str | None:
    """'int', 'float' or 'str' for a swept parameter, 'exempt' for one that
    must be exempted, None for one that takes a library object."""
    base = str(param.annotation).removesuffix(" | None")
    if base in BAD_VALUES:
        return base
    if (param.annotation is inspect.Parameter.empty
            or base in ("np.ndarray", "complex")):
        return "exempt"
    return None


def _parameters():
    """(callable name, parameter, kind) over every exported callable that
    the exemption table does not leave out as a whole."""
    for name, obj in sorted(_exports().items()):
        if name in EXEMPT:
            continue
        for param in inspect.signature(obj).parameters.values():
            kind = _kind(param)
            if kind and f"{name}.{param.name}" not in EXEMPT:
                yield name, param.name, kind


def test_every_exported_scalar_has_a_valid_call_or_an_exemption():
    missing = [f"{name}.{param}" for name, param, kind in _parameters()
               if kind == "exempt" or name not in VALID_CALLS]
    assert missing == []
    exports = _exports()
    for key, reason in EXEMPT.items():
        name, _, param = ((key, "", "") if key in exports
                          else key.rpartition("."))
        assert reason and name in exports, key
        assert not param or param in inspect.signature(
            exports[name]).parameters, key
    swept = {name for name, _, _ in _parameters()}
    assert set(VALID_CALLS) == swept


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_valid_calls_are_accepted(name):
    _exports()[name](**VALID_CALLS[name])


@pytest.mark.parametrize("name, param, bad", [
    (name, param, bad) for name, param, kind in _parameters()
    if kind != "exempt" for bad in BAD_VALUES[kind]])
def test_exported_surface_refuses_bad_scalars_by_name(name, param, bad):
    refused_as = REFUSED_AS.get(f"{name}.{param}", param)
    with pytest.raises(ValueError, match=f"^(?:{refused_as}) must be .+, got "):
        _exports()[name](**{**VALID_CALLS[name], param: bad})


# --------------------------------------------------------------------------
# refusals that no other test reaches, one row each
# --------------------------------------------------------------------------

def _knill(outcomes):
    return knill_step(make_qunaught(0.1), 0.1, forced_outcomes=outcomes)


REFUSALS = [
    # exact
    ("ragged-rows", lambda: ExactMatrix([[1, 2], [3]]), "ragged rows"),
    ("matmul-shapes", lambda: ExactMatrix([[1, 2]]) @ ExactMatrix([[1, 2]]),
     "dimension mismatch"),
    ("solve-shapes",
     lambda: solve_exact(ExactMatrix([[1, 2]]), ExactMatrix([[1]])),
     "bad shapes"),
    ("half-power-k", lambda: ExactCoeff.from_half_power(1, -1),
     "k must be non-negative, got -1"),
    ("identity-size", lambda: ExactMatrix.identity(-1),
     "n must be non-negative, got -1"),
    # gates
    ("wiring-partition",
     lambda: induced_gate(build_network(0), [0.0, 0.0], wiring=((0, 0),)),
     "wiring must partition the network modes"),
    ("target-size", lambda: solve_angles(identity_map(2), 1),
     "target size does not match arity"),
    ("arity-choice", lambda: solve_angles(identity_map(), 3),
     "arity must be one of 1, 2, 4, got 3"),
    # gkp
    ("squeezing-pair", lambda: SqueezingLevel(0.1, 3.0),
     "inconsistent delta_sq / db pair"),
    ("rpr-factor", lambda: decompose_rpr(SymplecticMap(1, 2 * np.eye(2))),
     "map does not factor as rotation-shear-rotation"),
    ("normalize-zero",
     lambda: GridWavefunction(Grid(0.1, 2), np.zeros(5)).normalized(),
     "cannot normalize the zero wavefunction"),
    ("overlap-grids",
     lambda: overlap(make_qunaught(0.1), make_qunaught(0.1, fine_grid())),
     "grid mismatch"),
    ("knill-m2-inf", lambda: _knill((0.1, math.inf)),
     "m2 must be finite, got inf"),
    ("knill-m1-nan", lambda: _knill((math.nan, 0.1)),
     "m1 must be finite, got nan"),
    ("knill-m1-bool", lambda: _knill((True, 0.1)),
     "m1 must be finite, got True"),
    # lattice
    ("layout-k", lambda: surface_layout(build_lattice(LatticeSpec(3, 3, 1, 9))),
     "surface layout requires a k=0 lattice"),
    ("layout-small",
     lambda: surface_layout(build_lattice(LatticeSpec(2, 2, 0, 8))),
     "lattice too small for a surface-code patch"),
    ("json-type", lambda: MacronodeGraph.from_json(1),
     "text must be a string, got 1"),
    ("json-parse", lambda: MacronodeGraph.from_json("nonsense"),
     "text must be a JSON document, got 'nonsense'"),
    # memory
    ("distance-choice", lambda: memory_experiment(2, 10.0, 1, 1, 0),
     "distance must be one of 3, 5, 7, got 2"),
    # networks
    ("layer-overlap",
     lambda: SplitterNetwork(4, (((0, 1), (1, 2)),), ("DRL",)),
     "layer pairs are not disjoint"),
    ("cancel-count", lambda: cancel_layer(build_network(1), [0.0] * 3),
     "angle count must match mode count"),
    # permutations
    ("bijection", lambda: ModePermutation((1, 1, 3, 4, 5, 6, 7, 8)),
     "images must be a bijection on 1..8"),
    ("cycles-type", lambda: ModePermutation.from_cycles(1),
     "text must be a string, got 1"),
    # phasespace
    ("map-shape", lambda: SymplecticMap(2, np.eye(2)),
     "matrix shape does not match mode count"),
    ("compose-modes", lambda: identity_map(1) @ identity_map(2),
     "mode count mismatch"),
    ("state-shape", lambda: GaussianState(1, np.zeros(4), np.eye(4)),
     "mean/covariance shape mismatch"),
    ("beamsplitter-modes", lambda: make_beamsplitter(0.3, 1, 1),
     "beamsplitter modes must differ"),
    ("cz-modes", lambda: make_cz(0.5, 1, 1), "modes must differ"),
    ("apply-modes", lambda: apply(identity_map(2), GaussianState.vacuum(1)),
     "mode count mismatch"),
    ("singular-marginal", lambda: homodyne_condition(
        GaussianState(1, np.zeros(2), np.zeros((2, 2))), 0, 0.0, 0.0),
     "marginal variance is singular"),
    # surface
    ("basis-angles", lambda: MeasurementBasis((0.0,) * 7, "custom"),
     "a macronode basis has 8 angles"),
    ("preset-angles", lambda: MeasurementBasis((0.1,) * 8, "even-data"),
     "surface-code presets use angles in {0, pi/2}"),
    ("quadrature-label", lambda: macronode_model().quadrature_row("q1"),
     "unknown quadrature label: 'q1'"),
    ("detector-angle",
     lambda: macronode_model().detector_row(1, math.pi / 4),
     "surface-code bases use angles in {0, pi/2}"),
    ("coefficient", lambda: QuadratureRelation("x1", {"x1": ExactCoeff(3)}, {}),
     "coefficient outside the documented set"),
    ("outcome-count", lambda: extract_stabilizer([0.0] * 7, "bulk-X"),
     "expected 8 outcomes"),
    ("outcome-pair", lambda: extract_stabilizer([0.0] * 8, "double"),
     "expected a pair of 8-outcome vectors"),
]


@pytest.mark.parametrize("call, message",
                         [pytest.param(c, m, id=i) for i, c, m in REFUSALS])
def test_refusals_say_what_they_refuse(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
