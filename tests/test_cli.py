import json

import pytest
from click.testing import CliRunner

from octorail.cli import cli, main, run_verification_suites


@pytest.fixture
def runner():
    return CliRunner()


def test_verify_all_passes(runner):
    result = runner.invoke(cli, ["verify-all"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["total"] >= 40
    assert doc["passed"] == doc["total"]
    names = [r["name"] for r in doc["identities"]]
    assert len(names) == len(set(names))


def test_verify_all_fault_injection(runner):
    result = runner.invoke(cli, ["verify-all", "--inject-fault", "s-row-5"])
    assert result.exit_code == 1
    assert "S matrix row 5" in result.output


def test_verify_all_json_file(runner, tmp_path):
    path = tmp_path / "report.json"
    result = runner.invoke(cli, ["verify-all", "--json", str(path)])
    assert result.exit_code == 0
    doc = json.loads(path.read_text())
    assert {"name", "pass", "detail"} <= set(doc["identities"][0])


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
    result = runner.invoke(cli, ["perms", "check", "(12)"])
    assert result.exit_code == 0
    assert not json.loads(result.output)["allowed"]


def test_lattice_export_dot(runner, tmp_path):
    dot = tmp_path / "g.dot"
    result = runner.invoke(cli, ["lattice", "export", "--n", "4", "--m", "4",
                                 "--k", "0", "--t", "64", "--dot", str(dot)])
    assert result.exit_code == 0
    text = dot.read_text()
    nodes = [l for l in text.splitlines()
             if "[label=" in l and "--" not in l]
    assert len(nodes) == 64


def test_surface_verify_reports_reference_diffs(runner):
    # all 20 reference relations and both regroupings are re-derived
    # bit-exactly, so no entry carries a diff and the command exits 0
    result = runner.invoke(cli, ["surface", "verify-appendix-c"])
    assert result.exit_code == 0, result.output
    entries = json.loads(result.output)["relations"]
    assert len(entries) == 22
    assert all(e["status"] == "exact" for e in entries), entries
    assert not any("diff" in e for e in entries)


def test_surface_verify_fails_on_printed_odd_p2_record(runner, monkeypatch):
    # odd-data p2' as printed (m1 = +2) is a record mismatch: the command
    # must report it with a diff and the solver's record, and exit 1
    from octorail import surface

    printed = [2, 0, -1, -1, 1, 1, 0, -2]
    table = tuple(
        surface.QuadratureRelation(
            r.output_label, r.coefficients,
            surface._rel(r.output_label, {}, printed).displacement)
        if r.output_label == "p2'" else r
        for r in surface.ODD_DATA_RELATIONS)
    monkeypatch.setitem(surface._DATA_RELATIONS, "odd-data", table)
    result = runner.invoke(cli, ["surface", "verify-appendix-c"])
    assert result.exit_code == 1
    entries = json.loads(result.stdout)["relations"]
    bad = [e for e in entries if e["status"] != "exact"]
    assert [(e["role"], e["output"], e["status"]) for e in bad] == [
        ("odd-data", "p2'", "record-mismatch")]
    assert bad[0]["diff"] and bad[0]["derived_record"]
    assert "1 relations differ" in result.stderr


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


def test_gkp_perror_requires_one_input(runner):
    result = runner.invoke(cli, ["gkp", "perror"])
    assert result.exit_code != 0


def test_gkp_angles(runner):
    result = runner.invoke(cli, ["gkp", "angles", "--encoding", "hex",
                                 "--theta1", "-0.785398163397448",
                                 "--theta2", "0.785398163397448"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert "phi1" in doc and "phi2" in doc


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
def test_surface_memory_rejects_unsqueezed_level(capsys, db):
    with pytest.raises(SystemExit) as exc:
        main(["surface", "memory", "--db", db, "--trials", "5"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert err.startswith("error: squeezing_db must be a finite level above "
                          "0 dB")


def test_error_is_single_line(runner):
    result = runner.invoke(cli, ["lattice", "export", "--n", "0", "--m", "1",
                                 "--k", "0", "--t", "4", "--json", "-"])
    assert result.exit_code != 0


def test_suite_has_enough_identities():
    report = run_verification_suites()
    assert len(report) >= 40
