import json
import math
import re
import shlex
from pathlib import Path

import golden
import pytest
from click.testing import CliRunner

from octorail.cli import cli, main, run_verification_suites
from octorail.lattice import LatticeSpec, build_lattice, surface_layout


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def refused(capsys, tmp_path, monkeypatch):
    """``refused(argv, config=None)`` runs ``octorail ARGV`` in an empty
    directory, with ``config`` written to its ``--config`` file if given.
    It checks that the command refused: exit status 1, nothing on stdout,
    one line on stderr that starts ``error: `` and no file written; and it
    returns that line."""
    monkeypatch.chdir(tmp_path)

    def run(argv, config=None):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = ["--config", "cfg.json", *argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith("\n"), err
        assert err.count("\n") == 1, err
        assert [p.name for p in tmp_path.iterdir()
                if p.name != "cfg.json"] == []
        return err[:-1]

    return run


def test_verify_all_passes(runner):
    result = runner.invoke(cli, ["verify-all"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["total"] >= 40
    assert doc["passed"] == doc["total"]
    names = [r["name"] for r in doc["identities"]]
    assert len(names) == len(set(names))


def test_verify_all_fault_injection(runner, monkeypatch):
    from octorail import networks

    signs = [list(r) for r in networks.EIGHTSPLITTER_SIGNS]
    signs[4][0] = -signs[4][0]
    monkeypatch.setattr(networks, "EIGHTSPLITTER_SIGNS",
                        tuple(tuple(r) for r in signs))
    result = runner.invoke(cli, ["verify-all"])
    assert result.exit_code == 1
    assert "S matrix row 5" in result.output
    assert result.stderr == "error: S matrix row 5 failed (mismatch)\n"


def test_verify_all_json_file(runner, tmp_path):
    path = tmp_path / "report.json"
    result = runner.invoke(cli, ["verify-all", "--json", str(path)])
    assert result.exit_code == 0
    doc = json.loads(path.read_text())
    assert {"name", "pass", "detail"} <= set(doc["identities"][0])


def test_verify_all_times_every_entry_and_keeps_the_recorded_report(runner):
    # the report was recorded before entries were timed; with ``seconds``
    # removed it is byte for byte the same
    result = runner.invoke(cli, ["verify-all"])
    assert result.exit_code == 0
    for entry in json.loads(result.output)["identities"]:
        seconds = entry["seconds"]
        assert type(seconds) is float and math.isfinite(seconds)
        assert seconds >= 0
    assert golden.difference("verify_all") is None


def test_network_dump(runner):
    result = runner.invoke(cli, ["network", "dump", "--level", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["n_modes"] == 8


def test_gates_verify(runner):
    result = runner.invoke(cli, ["gates", "verify"])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["rows"]) == 13


def test_gates_solve(runner):
    result = runner.invoke(cli, ["gates", "solve", "--target", "fourier",
                                 "--arity", "1"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["reachable"] and doc["residual"] < 1e-9


def test_gates_solve_rejects_non_finite_param(refused):
    assert refused(["gates", "solve", "--target", "shear", "--param",
                    "nan"]) == "error: param must be finite, got nan"


def test_gates_verify_json_is_the_recorded_report():
    # the gate-table report and the gates_solve/ solutions were recorded
    # before the detector system took the output quadratures as unknowns
    assert golden.difference("gates_verify") is None


@pytest.mark.parametrize("target,arity", golden.GATES_SOLVED)
def test_gates_solve_json_is_the_recorded_solution(target, arity):
    assert golden.difference(f"gates_solve/{target}-{arity}") is None


def test_gkp_magic_probe_rejects_nan_level(refused):
    from octorail.gkp import heterodyne_magic_probe

    assert refused(["gkp", "magic-probe", "--db", "nan", "--samples",
                    "2"]) == "error: db must be finite, got nan"
    # library callers reach the probe without the dB conversion
    with pytest.raises(ValueError):
        heterodyne_magic_probe(float("nan"), 2, 0)


def test_perms_cosets_row_count(runner):
    result = runner.invoke(cli, ["perms", "cosets"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "index,cycles,images"
    assert len(lines) == 32  # comment + header + 30 rows


def test_perms_check(runner):
    result = runner.invoke(cli, ["perms", "check", "(26)(37)"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["allowed"] and doc["implementations_agree"]
    for perm in ("(12)", "2,1,3,4,5,6,7,8"):
        result = runner.invoke(cli, ["perms", "check", perm])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert not doc["allowed"] and doc["permutation"] == "(12)"


def test_perms_cosets_csv_is_the_recorded_table():
    assert golden.difference("perms_cosets") is None


@pytest.mark.parametrize("perm", ["(12)junk", "12)(34)", "(1a2)"])
def test_perms_check_rejects_unreadable_cycles(refused, perm):
    assert refused(["perms", "check", perm]) == (
        f"error: cannot parse cycle notation: {perm!r}")


def test_lattice_export_dot(runner, tmp_path):
    dot = tmp_path / "g.dot"
    result = runner.invoke(cli, ["lattice", "export", "--n", "4", "--m", "4",
                                 "--k", "0", "--t", "64", "--dot", str(dot)])
    assert result.exit_code == 0
    text = dot.read_text()
    nodes = [l for l in text.splitlines()
             if "[label=" in l and "--" not in l]
    assert len(nodes) == 64


def test_lattice_export_roles_are_the_surface_layout(runner, tmp_path):
    path = tmp_path / "g.json"
    result = runner.invoke(cli, ["lattice", "export", "--n", "4", "--m", "3",
                                 "--k", "0", "--t", "36", "--roles",
                                 "--json", str(path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(path.read_text())
    layout = surface_layout(build_lattice(LatticeSpec(4, 3, 0, 36)))
    assert {node["j"]: node["role"] for node in doc["nodes"]} == layout


def test_usage_error_is_one_line_with_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "export", "--bogus"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("error: ") and "--bogus" in err, err
    assert err.count("\n") == 1 and err.endswith("\n"), err


def test_surface_verify_reports_reference_diffs(runner):
    # all 20 reference relations and both regroupings are re-derived
    # bit-exactly, so no entry carries a diff and the command exits 0
    result = runner.invoke(cli, ["surface", "verify-appendix-c"])
    assert result.exit_code == 0, result.output
    entries = json.loads(result.output)["relations"]
    assert len(entries) == 22
    assert all(e["status"] == "exact" for e in entries), entries
    assert not any("diff" in e for e in entries)


def _patch_printed_odd_p2_record(monkeypatch):
    # odd-data p2' as printed (m1 = +2) is a record mismatch
    from octorail import surface

    printed = [2, 0, -1, -1, 1, 1, 0, -2]
    table = tuple(
        surface.QuadratureRelation(
            r.output_label, r.coefficients,
            surface._rel(r.output_label, {}, printed).displacement)
        if r.output_label == "p2'" else r
        for r in surface.ODD_DATA_RELATIONS)
    monkeypatch.setitem(surface._DATA_RELATIONS, "odd-data", table)


def test_surface_verify_fails_on_printed_odd_p2_record(runner, monkeypatch):
    # the command must report the printed record with a diff and the
    # solver's record, and exit 1
    _patch_printed_odd_p2_record(monkeypatch)
    result = runner.invoke(cli, ["surface", "verify-appendix-c"])
    assert result.exit_code == 1
    entries = json.loads(result.stdout)["relations"]
    bad = [e for e in entries if e["status"] != "exact"]
    assert [(e["role"], e["output"], e["status"]) for e in bad] == [
        ("odd-data", "p2'", "record-mismatch")]
    assert bad[0]["diff"] and bad[0]["derived_record"]
    assert "1 relations differ" in result.stderr


def test_verify_all_fails_on_printed_odd_p2_record(runner, monkeypatch):
    _patch_printed_odd_p2_record(monkeypatch)
    result = runner.invoke(cli, ["verify-all"])
    assert result.exit_code == 1
    report = json.loads(result.stdout)["identities"]
    bad = [r for r in report if not r["pass"]]
    # every entry is timed; the rest of the failing entry is exact
    assert all(math.isfinite(r.pop("seconds")) for r in bad)
    assert bad == [{"name": "quadrature relation odd-data p2'",
                    "pass": False, "detail": "record-mismatch"}]
    assert result.stderr == ("error: quadrature relation odd-data p2' "
                             "failed (record-mismatch)\n")


def test_surface_memory_csv_reproducible(runner, tmp_path):
    args = ["surface", "memory", "--d", "3", "--db", "13", "--rounds", "2",
            "--trials", "300", "--seed", "7"]
    out = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        result = runner.invoke(cli, args + ["--csv", str(path)])
        assert result.exit_code == 0, result.output
        out.append(path.read_bytes())
    assert out[0] == out[1]
    lines = out[0].decode().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == ("distance,db,rounds,trials,failures,rate,"
                        "ci_low,ci_high,seed")
    assert lines[2].startswith("3,13.0,2,300,")


def test_gkp_perror(runner):
    result = runner.invoke(cli, ["gkp", "perror", "--db", "10"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["delta_sq"] == pytest.approx(0.1)
    assert doc["p_error"] == pytest.approx(7.8e-5, rel=0.01)


def test_gkp_perror_requires_one_input(runner, refused):
    message = "error: pass exactly one of --db / --delta-sq"
    assert refused(["gkp", "perror"]) == message
    assert refused(["gkp", "perror", "--db", "10", "--delta-sq",
                    "0.1"]) == message
    # click's standalone mode prints the same refusal
    result = runner.invoke(cli, ["gkp", "perror"])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == message + "\n"


def test_gkp_angles(runner):
    result = runner.invoke(cli, ["gkp", "angles", "--encoding", "hex",
                                 "--theta1", "-0.785398163397448",
                                 "--theta2", "0.785398163397448"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert "phi1" in doc and "phi2" in doc


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_gkp_angles_rejects_non_finite_angles(refused, theta):
    assert refused(["gkp", "angles", "--theta1", theta, "--theta2",
                    "1"]) == f"error: theta1 must be finite, got {theta}"


def test_gkp_magic_probe_csv(runner, tmp_path):
    path = tmp_path / "probe.csv"
    result = runner.invoke(cli, ["gkp", "magic-probe", "--db", "13",
                                 "--samples", "5", "--seed", "3",
                                 "--csv", str(path)])
    assert result.exit_code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert len(lines) == 7  # comment + header + 5 samples


def test_config_file_precedence(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"db": 13.0}))
    # config value used when the flag is absent
    result = runner.invoke(cli, ["--config", str(cfg), "gkp", "perror"])
    assert json.loads(result.output)["db"] == 13.0
    # flag wins over the config value
    result = runner.invoke(cli, ["--config", str(cfg), "gkp", "perror",
                                 "--db", "10"])
    assert json.loads(result.output)["db"] == 10.0


@pytest.mark.parametrize("db", ["0", "-3"])
def test_surface_memory_rejects_unsqueezed_level(refused, db):
    assert refused(["surface", "memory", "--db", db, "--trials", "5"]) == (
        f"error: squeezing_db must be finite and positive, got {float(db)}")


def test_surface_memory_rejects_negative_seed(refused):
    assert refused(["surface", "memory", "--seed", "-3", "--trials",
                    "5"]) == "error: seed must be non-negative, got -3"


def test_gkp_magic_probe_rejects_negative_seed(refused):
    assert refused(["gkp", "magic-probe", "--seed", "-3", "--samples",
                    "2"]) == "error: seed must be non-negative, got -3"


@pytest.mark.parametrize("name, value", [("samples", 10.5), ("seed", 2.5),
                                         ("samples", True)])
def test_gkp_magic_probe_rejects_non_integer_config_count(refused, name,
                                                          value):
    assert refused(["gkp", "magic-probe"], {name: value}) == (
        f"error: {name} must be an integer, got {value!r}")


def test_surface_memory_rejects_fractional_config_count(refused):
    assert refused(["surface", "memory"], {"trials": 10.5}) == (
        "error: trials must be an integer, got 10.5")


def test_lattice_export_rejects_m_zero(refused):
    assert refused(["lattice", "export", "--m", "0", "--json",
                    "g.json"]) == "error: m must be positive, got 0"


def test_error_is_single_line(refused):
    assert refused(["lattice", "export", "--n", "0", "--m", "1", "--k", "0",
                    "--t", "4", "--json", "-"]) == (
        "error: n must be positive, got 0")


@pytest.mark.parametrize("command, config, message", [
    (["network", "dump"], [2], "config file must hold a JSON object"),
    (["gates", "solve", "--target", "swap"], None, "swap needs arity >= 2"),
    (["lattice", "export"], None, "pass --dot and/or --json"),
])
def test_command_refusals_say_what_is_missing(refused, command, config,
                                              message):
    """What no library check sees: a config file that holds no object, a
    two-mode target on one mode and an export with nowhere to go."""
    assert refused(command, config) == f"error: {message}"


@pytest.mark.parametrize("config, command, message", [
    ({"n": 4.5}, ["lattice", "export", "--json", "g.json"],
     "n must be an integer, got 4.5"),
    ({"level": True}, ["network", "dump"],
     "level must be an integer, got True"),
    ({"arity": True}, ["gates", "solve", "--target", "identity"],
     "arity must be an integer, got True"),
    ({"db": "13"}, ["gkp", "perror"], "db must be finite, got '13'"),
    ({"arity": "2"}, ["gates", "solve", "--target", "identity"],
     "arity must be an integer, got '2'"),
    ({"arity": "2"}, ["gates", "solve", "--target", "cz"],
     "arity must be an integer, got '2'"),
    ({"arity": 2.5}, ["gates", "solve", "--target", "identity"],
     "arity must be an integer, got 2.5"),
    ({"param": "1"}, ["gates", "solve", "--target", "shear"],
     "param must be finite, got '1'"),
    ({"param": True}, ["gates", "solve", "--target", "shear"],
     "param must be finite, got True"),
])
def test_config_values_reach_the_checks_unconverted(refused, config,
                                                    command, message):
    assert refused(command, config) == f"error: {message}"


#: Every key that each command reads from ``--config``
CONFIG_KEYS = {
    "network dump": ("level",),
    "gates solve --target identity": ("arity", "param", "seed"),
    "lattice export --json g.json": ("n", "m", "k", "t"),
    "surface memory": ("d", "db", "rounds", "trials", "seed"),
    "gkp perror": ("db", "delta_sq"),
    "gkp angles --theta1 0 --theta2 0": ("alpha",),
    "gkp magic-probe": ("db", "samples", "seed"),
}
REAL_KEYS = {"param", "db", "delta_sq", "alpha"}
#: The keys that the library refuses under its own name
LIBRARY_NAMES = {("lattice export", "t"): "horizon",
                 ("surface memory", "d"): "distance",
                 ("surface memory", "db"): "squeezing_db"}


@pytest.mark.parametrize("command, key, value", [
    (command, key, value) for command, keys in CONFIG_KEYS.items()
    for key in keys
    for value in [True, math.nan, math.inf, -math.inf, "1"]
    + [1.5] * (key not in REAL_KEYS)])
def test_every_config_key_is_refused_by_name(refused, command, key, value):
    """JSON's true, NaN, ±Infinity and "1", and 1.5 for a count, are
    refused by every key that reads them, under the key's name."""
    name = LIBRARY_NAMES.get((" ".join(command.split()[:2]), key), key)
    line = refused(command.split(), {key: value})
    assert line.startswith(f"error: {name} must be "), line
    assert line.endswith(f", got {value!r}"), line


def test_suite_has_enough_identities():
    report = run_verification_suites()
    names = [r["name"] for r in report]
    assert len(names) == len(set(names)) == 67
    # each section in report order: name prefix and the detail of every
    # entry (None: a measured deviation)
    sections = [
        ("S matrix row", ["exact"] * 8),
        ("layer commutation", ["exact"] * 3),
        ("gate table", [None] * 13),
        (("allowed permutation", "right coset", "coset representatives"),
         ["1344", "30", "14 checked", "5/5"]),
        ("angle transform identity", [None] * 7),
        (("Fourier", "shear", "U * U^T"),
         ["label H", "label I", "label I", "label I", "label H"]),
        (("quadrature relation", "outcome regrouping"), ["exact"] * 22),
        ("stabilizer combination", ["coefficient 1/sqrt2"] * 5),
    ]
    start = 0
    for prefix, details in sections:
        block = report[start:start + len(details)]
        assert len(block) == len(details), prefix
        for entry, detail in zip(block, details):
            assert entry["name"].startswith(prefix), entry
            assert detail in (None, entry["detail"]), entry
        start += len(details)
    assert start == len(report)


def test_readme_cli_lines_run(capsys, tmp_path, monkeypatch):
    """Every line of the README's CLI block is an ``octorail`` command, and
    each exits 0 when run through ``cli.main``, in that order, in an empty
    directory that holds the README's ``cfg.json``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", readme, re.S)
                if "octorail " in b]
    (config,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(config)
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines()]
    assert all(argv[0] == "octorail" for argv in commands)
    ran = 0
    for argv in commands:
        try:
            main(argv[1:])
        except SystemExit as exc:
            pytest.fail(f"{shlex.join(argv)} exited {exc.code}: "
                        f"{capsys.readouterr().err}")
        ran += 1
    assert ran == len(commands) == 13
    written = {"cosets.csv", "lattice.dot", "out.csv", "probe.csv"}
    assert written <= {p.name for p in tmp_path.iterdir()}
