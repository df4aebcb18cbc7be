import shutil

import golden
import pytest


@pytest.mark.parametrize("name", ["surface_verify_appendix_c",
                                  "gkp_magic_probe", "surface_memory",
                                  "surface_memory_long"])
def test_seeded_console_outputs_are_the_recorded_ones(name):
    assert golden.difference(name) is None


def test_manifest_names_a_changed_line_and_records_only_the_named_file(
        tmp_path, monkeypatch, capsys):
    shutil.copytree(golden.DATA, tmp_path / "data")
    monkeypatch.setattr(golden, "DATA", tmp_path / "data")

    def files():
        return {p: p.read_bytes() for p in golden.DATA.rglob("*.*")}

    recorded = files()
    path = golden.DATA / "perms_cosets.csv"
    path.write_bytes(recorded[path].replace(b"(78)", b"(87)", 1))
    report = ("1 of 32 lines differ; first, line 4: recorded "
              "'1,(87),1 2 3 4 5 6 8 7\\n', now '1,(78),1 2 3 4 5 6 8 7\\n'")
    assert golden.difference("perms_cosets") == report
    assert golden.main(["perms_cosets"]) == 1
    assert golden.main(["--record", "perms_cosets"]) == 0
    assert files() == recorded
    assert capsys.readouterr().out == f"perms_cosets: {report}\n" * 2
