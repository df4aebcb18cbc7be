"""Command-line front end: verification suites, network/lattice export,
angle solving, and Monte Carlo runs.

``verify-all`` reports the identities that ``_identities`` declares once,
in report order, each as (name, observed, expected, detail, fixed);
``run_verification_suites`` turns every declaration into one report entry
and times it in ``seconds``.

Configuration precedence: command-line flags > JSON config file (passed via
``--config``, flat key/value pairs named after the flags) > built-in
defaults.  Every CSV output starts with a config-echo comment line and a
header row; all seeded commands are byte-reproducible.  Every document is
written by ``_emit``, and every refusal is ``_fail``'s one ``error:`` line
on stderr with exit status 1.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
import time

import click
import numpy as np

from . import gates, gkp, memory, networks, permutations, surface
from .checks import require_int, require_real
from .lattice import LatticeSpec, build_lattice, surface_layout
from .phasespace import SymplecticMap


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _cfg(ctx, name, flag_value, default):
    if flag_value is not None:
        return flag_value
    return (ctx.obj or {}).get(name, default)


def _json(doc):
    """A JSON document as every command writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(config, header, rows):
    """A CSV document: the ``# config:`` line, the header and the rows."""
    out = io.StringIO()
    out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _emit(text, path):
    """Write ``text`` to the file ``path``, or to stdout without one."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fail(message):
    """Refuse: one ``error: <message>`` line on stderr, exit status 1."""
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


# --------------------------------------------------------------------------
# verification suite
# --------------------------------------------------------------------------

def _data_basis_verdicts():
    """The 20 quadrature relations and 2 outcome regroupings of the data
    bases, each as (role, output, status, extra): ``extra`` holds the diff
    and derived record of a relation that is not exact."""
    for role in ("even-data", "odd-data"):
        for check in surface.derive_quadrature_relations(role):
            extra = {}
            if check.diff:
                extra["diff"] = check.diff
            if check.derived_displacement is not None:
                extra["derived_record"] = {
                    k: str(v) for k, v in check.derived_displacement.items()}
            yield role, check.relation.output_label, check.status, extra
        yield (role, "regrouping",
               "exact" if surface.verify_regrouping(role) else "mismatch", {})


def _identities():
    """Every identity ``verify-all`` reports, in report order, as
    (name, observed, expected, detail, fixed).  An entry passes when
    observed == expected.  A ``fixed`` detail is a label that reads
    ``mismatch`` when the entry fails; any other detail is shown as is.
    Values that several entries share are computed once per call."""
    # eightsplitter transfer matrix, row by row, against the sign table
    for row in networks.verify_eightsplitter():
        yield row["name"], row["pass"], True, "exact", True

    comm = networks.check_layer_commutation(networks.build_network(2))
    for (a, b), ok in comm["pairs"].items():
        yield f"layer commutation {a}-{b}", ok, True, "exact", True

    for row in gates.verify_gate_tables():
        yield (f"gate table {row['table']}: {row['gate']}", row["pass"], True,
               f"max dev {row['max_dev']:.3e}", False)

    # permutation group
    allowed = sorted(permutations._allowed_images())
    reps = permutations.cosets()
    yield ("allowed permutation group order", len(allowed), 1344,
           str(len(allowed)), False)
    yield "right coset count", len(reps), 30, str(len(reps)), False
    sample = [permutations.ModePermutation(p) for p in allowed[::97]]
    signed = all(isinstance(permutations.basis_transform(p),
                            permutations.SignedPermutationMatrix)
                 for p in sample)
    yield ("allowed permutations give signed-permutation basis transforms "
           "(sample)", signed, True, f"{len(sample)} checked", False)
    rejected = sum(isinstance(permutations.basis_transform(p),
                              permutations.TransformRejection)
                   for p in reps[1:6])
    yield ("coset representatives outside the group are rejected (sample)",
           rejected, 5, f"{rejected}/5", False)

    # homodyne-angle transforms: V(phi) = Lam U Lam V(theta) U^-1
    square = gkp.square_encoding()
    rect = gkp.rectangular_encoding(1.3)
    hexagonal = gkp.hexagonal_encoding()
    _, _, w2 = gkp.decompose_rpr(hexagonal.u_g)
    cases = [(f"{label} ({t1:+.1f}, {t2:+.1f})", enc, t1, t2)
             for label, enc in (("square", square), ("rectangular", rect),
                                ("hexagonal", hexagonal))
             for t1, t2 in ((0.1, 1.2), (-0.7, 0.4))]
    cases.append(("hexagonal (degenerate branch)", hexagonal, -w2, -w2 + 0.9))
    lam = np.diag([1.0, -1.0])
    for label, enc, theta1, theta2 in cases:
        phi1, phi2 = gkp.transform_angles(theta1, theta2, enc)
        lhs = gates.teleported_gate_v(phi1, phi2).matrix
        u = enc.u_g.matrix
        rhs = (lam @ u @ lam @ gates.teleported_gate_v(theta1, theta2).matrix
               @ np.linalg.inv(u))
        dev = float(np.abs(lhs - rhs).max())
        yield (f"angle transform identity {label}", dev < 1e-9, True,
               f"max dev {dev:.3e}", False)

    # logical action of symplectic maps
    from .phasespace import make_shear
    shear = make_shear(-1.0)
    f = gates.FOURIER
    for name, smap, enc, label in (
            ("Fourier acts as logical H on square code", f, square, "H"),
            ("Fourier^4 acts as logical identity", f @ f @ f @ f, square, "I"),
            ("shear(-1)^2 acts as logical identity (phase gate squared)",
             shear @ shear, square, "I"),
            ("U * U^T acts as logical identity on the rectangular code",
             rect.u_g @ gkp.transpose_map(rect.u_g), rect, "I"),
            ("U * U^T acts as logical H on the hexagonal code",
             hexagonal.u_g @ gkp.transpose_map(hexagonal.u_g), hexagonal,
             "H")):
        action = gkp.logical_action(smap, enc)
        yield (name, (action.preserves_lattice, action.clifford_label),
               (True, label), f"label {action.clifford_label}", False)

    # macronode data-qubit quadrature relations and outcome regroupings
    for role, output, status, _ in _data_basis_verdicts():
        name = (f"outcome regrouping {role}" if output == "regrouping"
                else f"quadrature relation {role} {output}")
        yield name, status, "exact", status, False

    # stabilizer combinations by exact row arithmetic
    for kind, table in surface.STABILIZERS.items():
        combos = surface.stabilizer_combination(kind)
        for idx, ((_, inputs), (_, support)) in enumerate(zip(combos, table)):
            want = [surface.HALF_SQRT2 if j in support else surface.ZERO
                    for j in range(8)]
            yield (f"stabilizer combination {kind} #{idx + 1}", list(inputs),
                   want, "coefficient 1/sqrt2", True)


def run_verification_suites():
    """All anchored identities, one verdict per entry.  An entry's
    ``seconds`` is the wall time from the previous entry's verdict to its
    own, so a value that several entries share is timed under the first
    entry that computes it."""
    report = []
    start = time.perf_counter()
    for name, observed, expected, detail, fixed in _identities():
        ok = bool(observed == expected)
        now = time.perf_counter()
        report.append({"name": name, "pass": ok,
                       "detail": "mismatch" if fixed and not ok else detail,
                       "seconds": now - start})
        start = now
    return report


# --------------------------------------------------------------------------
# command tree
# --------------------------------------------------------------------------

@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="JSON file with default parameter values.")
@click.pass_context
def cli(ctx, config_path):
    ctx.obj = {}
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            _fail("config file must hold a JSON object")
        ctx.obj = loaded


@cli.command("verify-all")
@click.option("--json", "json_path", type=click.Path(), default=None)
def verify_all(json_path):
    """Run every anchored identity check; exit 0 iff all pass."""
    report = run_verification_suites()
    passed = sum(r["pass"] for r in report)
    doc = {"identities": report, "total": len(report), "passed": passed}
    _emit(_json(doc), json_path)
    failures = [r for r in report if not r["pass"]]
    if failures:
        _fail(f"{failures[0]['name']} failed ({failures[0]['detail']})")


@cli.group()
def network():
    """Splitter-network inspection."""


@network.command("dump")
@click.option("--level", type=int, default=None)
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.pass_context
def network_dump(ctx, level, json_path):
    level = _cfg(ctx, "level", level, 2)
    _emit(networks.build_network(level).to_json() + "\n", json_path)


@cli.group("gates")
def gates_group():
    """Teleported-gate tables and angle solving."""


@gates_group.command("verify")
@click.option("--json", "json_path", type=click.Path(), default=None)
def gates_verify(json_path):
    report = gates.verify_gate_tables()
    _emit(_json({"rows": report}), json_path)
    if not all(r["pass"] for r in report):
        bad = next(r for r in report if not r["pass"])
        _fail(f"gate table row {bad['gate']} failed")


_NAMED_TARGETS = {
    "identity": lambda k, g: np.eye(2 * k),
    "fourier": lambda k, g: gates._f_matrix(k, range(k)),
    "shear": lambda k, g: gates._shear_matrix(k, g),
    "swap": lambda k, g: gates._swap_matrix(
        k, [(i, i + 1) for i in range(0, k - 1, 2)]),
    "cz": lambda k, g: gates._cz_matrix(
        k, [(i, i + 1) for i in range(0, k - 1, 2)], g),
}


@gates_group.command("solve")
@click.option("--target", type=click.Choice(sorted(_NAMED_TARGETS)),
              required=True)
@click.option("--arity", type=int, default=None)
@click.option("--param", type=float, default=None,
              help="Gate parameter (shear strength / CZ weight).")
@click.option("--seed", type=int, default=None)
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.pass_context
def gates_solve(ctx, target, arity, param, seed, json_path):
    arity = require_int("arity", _cfg(ctx, "arity", arity, 1), 1)
    param = _cfg(ctx, "param", param, -1.0)
    seed = _cfg(ctx, "seed", seed, 0)
    if target in ("swap", "cz") and arity < 2:
        _fail(f"{target} needs arity >= 2")
    require_real("param", param)
    matrix = _NAMED_TARGETS[target](arity, param)
    sol = gates.solve_angles(SymplecticMap(arity, matrix), arity, seed=seed)
    _emit(_json({"target": target, "arity": arity, "param": param,
                 "seed": seed, "angles": list(sol.angles),
                 "residual": sol.residual, "reachable": sol.reachable}),
          json_path)
    if not sol.reachable:
        _fail("no angle solution found")


@cli.group()
def perms():
    """Allowed mode-permutation group."""


@perms.command("cosets")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def perms_cosets(csv_path):
    reps = permutations.cosets()
    rows = [(i, rep.to_cycles(), " ".join(map(str, rep.images)))
            for i, rep in enumerate(reps)]
    _emit(_csv({"command": "perms cosets"}, ["index", "cycles", "images"],
               rows), csv_path)


@perms.command("check")
@click.argument("perm")
def perms_check(perm):
    """Check PERM (cycle notation such as '(26)(37)', or 8 comma-separated
    images) for membership in the allowed group."""
    if "(" in perm:
        p = permutations.ModePermutation.from_cycles(perm)
    else:
        p = permutations.ModePermutation(
            tuple(int(t) for t in perm.split(",")))
    via_closure = permutations.is_allowed(p, "closure")
    via_sets = permutations.is_allowed(p, "sets")
    doc = {"permutation": p.to_cycles(), "images": list(p.images),
           "allowed": via_closure, "implementations_agree":
           via_closure == via_sets}
    t = permutations.basis_transform(p)
    if isinstance(t, permutations.SignedPermutationMatrix):
        doc["basis_transform"] = {"permutation": t.permutation.to_cycles(),
                                  "signs": list(t.signs)}
    _emit(_json(doc), None)
    if via_closure != via_sets:
        _fail("membership implementations disagree")


@cli.group()
def lattice():
    """Macronode lattice construction and export."""


@lattice.command("export")
@click.option("--n", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--t", "horizon", type=int, default=None,
              help="Number of clock cycles (macronodes).")
@click.option("--dot", "dot_path", type=click.Path(), default=None)
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--roles/--no-roles", default=False,
              help="Attach surface-code roles (k=0 lattices only).")
@click.pass_context
def lattice_export(ctx, n, m, k, horizon, dot_path, json_path, roles):
    n = _cfg(ctx, "n", n, 4)
    m = _cfg(ctx, "m", m, 4)
    k = _cfg(ctx, "k", k, 0)
    horizon = _cfg(ctx, "t", horizon, 64)
    graph = build_lattice(LatticeSpec(n, m, k, horizon))
    if roles:
        graph = dataclasses.replace(graph, roles=surface_layout(graph))
    if not dot_path and not json_path:
        _fail("pass --dot and/or --json")
    if dot_path:
        _emit(graph.to_dot(), dot_path)
    if json_path:
        _emit(graph.to_json() + "\n", json_path)


@cli.group("surface")
def surface_group():
    """Surface-code bases, identities and memory experiments."""


@surface_group.command("verify-appendix-c")
@click.option("--json", "json_path", type=click.Path(), default=None)
def surface_verify(json_path):
    """Re-derive all 20 reference quadrature relations and both outcome
    regroupings from the exact macronode model; exit nonzero if any entry
    differs from the reference tables (non-exact entries carry a diff)."""
    entries = [{"role": role, "output": output, "status": status, **extra}
               for role, output, status, extra in _data_basis_verdicts()]
    _emit(_json({"relations": entries}), json_path)
    bad = [e for e in entries if e["status"] != "exact"]
    if bad:
        _fail(f"{len(bad)} relations differ from the reference tables "
              f"(first: {bad[0]['role']} {bad[0]['output']} "
              f"{bad[0]['status']})")


@surface_group.command("memory")
@click.option("--d", "distance", type=int, default=None)
@click.option("--db", type=float, default=None)
@click.option("--rounds", type=int, default=None)
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.pass_context
def surface_memory(ctx, distance, db, rounds, trials, seed, csv_path):
    distance = _cfg(ctx, "d", distance, 3)
    db = _cfg(ctx, "db", db, 10.0)
    rounds = _cfg(ctx, "rounds", rounds, distance)
    trials = _cfg(ctx, "trials", trials, 10000)
    seed = _cfg(ctx, "seed", seed, 7)
    res = memory.memory_experiment(distance, db, rounds, trials, seed)
    config = {"d": distance, "db": db, "rounds": rounds, "trials": trials,
              "seed": seed}
    _emit(_csv(config,
               ["distance", "db", "rounds", "trials", "failures", "rate",
                "ci_low", "ci_high", "seed"],
               [(res.distance, res.squeezing_db, res.rounds, res.trials,
                 res.failures, f"{res.rate:.6g}", f"{res.ci_low:.6g}",
                 f"{res.ci_high:.6g}", res.seed)]), csv_path)


@cli.group("gkp")
def gkp_group():
    """GKP conversions, angle transforms and probes."""


@gkp_group.command("perror")
@click.option("--db", type=float, default=None)
@click.option("--delta-sq", type=float, default=None)
@click.pass_context
def gkp_perror(ctx, db, delta_sq):
    db = _cfg(ctx, "db", db, None)
    delta_sq = _cfg(ctx, "delta_sq", delta_sq, None)
    if (db is None) == (delta_sq is None):
        _fail("pass exactly one of --db / --delta-sq")
    level = (gkp.db_conversion(db, "from-db") if db is not None
             else gkp.db_conversion(delta_sq, "to-db"))
    perr = gkp.p_error(level.delta_sq)
    tail = gkp.p_error_tail_oracle(level.delta_sq)
    _emit(_json({"delta_sq": level.delta_sq, "db": level.db,
                 "p_error": perr, "tail_oracle": tail, "ratio": perr / tail}),
          None)


_ENCODINGS = {
    "square": lambda alpha: gkp.square_encoding(),
    "rect": lambda alpha: gkp.rectangular_encoding(alpha),
    "rectangular": lambda alpha: gkp.rectangular_encoding(alpha),
    "hex": lambda alpha: gkp.hexagonal_encoding(),
    "hexagonal": lambda alpha: gkp.hexagonal_encoding(),
}


@gkp_group.command("angles")
@click.option("--encoding", type=click.Choice(sorted(_ENCODINGS)),
              default=None)
@click.option("--alpha", type=float, default=None,
              help="Lattice constant for the rectangular encoding.")
@click.option("--theta1", type=float, required=True)
@click.option("--theta2", type=float, required=True)
@click.pass_context
def gkp_angles(ctx, encoding, alpha, theta1, theta2):
    encoding = _cfg(ctx, "encoding", encoding, "square")
    alpha = _cfg(ctx, "alpha", alpha, math.sqrt(math.pi))
    require_real("alpha", alpha, positive=True)
    enc = _ENCODINGS[encoding](alpha)
    w1, lam, w2 = gkp.decompose_rpr(enc.u_g)
    phi1, phi2 = gkp.transform_angles(theta1, theta2, enc)
    _emit(_json({"encoding": encoding, "theta1": theta1, "theta2": theta2,
                 "omega1": w1, "lambda": lam, "omega2": w2,
                 "phi1": phi1, "phi2": phi2}), None)


@gkp_group.command("magic-probe")
@click.option("--db", type=float, default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.pass_context
def gkp_magic_probe(ctx, db, samples, seed, csv_path):
    db = _cfg(ctx, "db", db, 12.0)
    samples = _cfg(ctx, "samples", samples, 200)
    seed = _cfg(ctx, "seed", seed, 3)
    delta_sq = gkp.db_conversion(db, "from-db").delta_sq
    result = gkp.heterodyne_magic_probe(delta_sq, samples, seed)
    config = {"db": db, "samples": samples, "seed": seed,
              "fraction_near_h_axis": round(result.fraction_near_h_axis, 9)}
    rows = [(f"{s.alpha.real:.9g}", f"{s.alpha.imag:.9g}",
             f"{s.weight:.9g}", f"{s.bloch[0]:.9g}", f"{s.bloch[1]:.9g}",
             f"{s.bloch[2]:.9g}", f"{s.h_axis_distance:.9g}",
             f"{s.projection_fidelity:.9g}") for s in result.samples]
    _emit(_csv(config,
               ["alpha_re", "alpha_im", "weight", "bloch_x", "bloch_y",
                "bloch_z", "h_axis_distance", "projection_fidelity"], rows),
          csv_path)


def main(argv=None):
    try:
        cli(args=argv, standalone_mode=False, obj={})
    except click.exceptions.Abort:
        sys.exit(1)
    except click.ClickException as exc:  # click's own; usage errors exit 2
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(exc.exit_code)
    except Exception as exc:  # single-line machine-parsable failure
        _fail(exc)


if __name__ == "__main__":
    main()
