"""Command-line interface: output bytes, exit codes, caching, determinism."""

from __future__ import annotations

import json
import re

import pytest

from weightcalc import __version__, cli
from weightcalc.cli import main, run
from weightcalc.errors import DomainError, InternalError


def _call(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- text outputs ---------------------------------------------------------------


def test_powersum_text(capsys):
    rc, out, err = _call(capsys, ["powersum", "--type", "A2", "--weight", "1,1", "--k", "2"])
    assert rc == 0 and err == ""
    assert out == "12*y1^2 - 12*y1*y2 + 12*y2^2\n"


def test_elementary_text(capsys):
    rc, out, _ = _call(capsys, ["elementary", "--type", "A1", "--weight", "2", "--k", "2"])
    assert rc == 0
    assert out == "-4*y1^2\n"


def test_fk_text(capsys):
    rc, out, _ = _call(capsys, ["fk", "--type", "A1", "--k", "1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("F_1 = ")
    assert lines[1].startswith("F_1 / (d * d-dual) = ")


def test_orthotype_text(capsys):
    rc, out, _ = _call(capsys, ["orthotype", "--type", "C3", "--weight", "0,0,1"])
    assert (rc, out) == (0, "symplectic\n")
    rc, out, _ = _call(capsys, ["orthotype", "--group", "GL2", "--weight", "2,-2"])
    assert (rc, out) == (0, "orthogonal\n")


def test_swc_total_text(capsys):
    rc, out, _ = _call(capsys, ["swc-total", "--group", "SO5", "--weight", "1,0"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "m = m_1=2, m_2=0"
    assert "w_2 = v1^2 + v2^2" in lines


def test_spinorial_text(capsys):
    rc, out, _ = _call(capsys, ["spinorial", "--group", "Spin7", "--weight", "0,0,1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "spinorial: yes"
    assert any(line.startswith("j = 2") for line in lines)


def test_info_text(capsys):
    rc, out, _ = _call(capsys, ["info", "--type", "G2"])
    assert rc == 0
    assert "root system G2: dim g = 14, 6 positive roots" in out
    assert "Weyl group order 12" in out


def test_oracle_weights_text(capsys):
    rc, out, _ = _call(capsys, ["oracle", "weights", "--type", "A2", "--weight", "1,1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "dimension 8"
    assert lines[1] == "mu = 1,1  m = 1"  # descending by (coordinate sum, weight)
    assert lines[-1] == "mu = -1,-1  m = 1"
    assert "mu = 0,0  m = 2" in lines
    assert len(lines) == 1 + 7  # seven distinct weights in the adjoint


# -- JSON envelope ------------------------------------------------------------------


def test_json_envelope_shape(capsys):
    argv = ["powersum", "--type", "A2", "--weight", "1,1", "--k", "2", "--format", "json"]
    rc, out, _ = _call(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["input"] == {"kind": "A", "rank": 2, "weight": [1, 1], "k": 2}
    assert set(doc["result"]) == {"k", "weight", "p"}
    # canonical serialization: sorted keys, two-space indent, trailing newline
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    rc2, out2, _ = _call(capsys, argv)
    assert out2 == out


def test_chern_json(capsys):
    rc, out, _ = _call(
        capsys, ["chern", "--group", "GL2", "--weight", "1,0", "--k", "2", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["input"] == {"group": "GL2", "kmax": 2, "weight": [1, 0]}
    assert doc["result"]["degree"] == 2
    assert doc["result"]["c"][2] == {"terms": [{"c": "1", "m": {"e1": 1, "e2": 1}}]}


def test_spinorial_json(capsys):
    rc, out, _ = _call(capsys, ["spinorial", "--group", "PGL2", "--weight", "4", "--format", "json"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res == {
        "spinorial": False,
        "j": 2,
        "secondary_integral": False,
        "c2": {"terms": [{"c": "-5", "m": {"eb": 2}}]},
    }


def test_swc_total_json(capsys):
    rc, out, _ = _call(capsys, ["swc-total", "--group", "SO5", "--weight", "1,0", "--format", "json"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["m"] == [2, 0]
    assert res["agrees_with_restriction"] is True
    assert res["w"][2] == {"terms": [{"v1": 2}, {"v2": 2}]}


def test_info_json(capsys):
    rc, out, _ = _call(capsys, ["info", "--group", "PGL2", "--format", "json"])
    res = json.loads(out)["result"]
    assert res["group"] == "PGL2" and res["family"] == "PGL"
    assert res["generators"] == ["eb"] and res["torsion_generators"] == ["vb"]
    assert res["basis"] == [[2]]
    assert res["weyl_order"] == 2 and res["dim_g"] == 3
    rc, out, _ = _call(capsys, ["info", "--type", "B3", "--format", "json"])
    res = json.loads(out)["result"]
    assert res["weyl_order"] == 48 and res["positive_roots"] == 9


def test_orthotype_json(capsys):
    rc, out, _ = _call(capsys, ["orthotype", "--type", "C3", "--weight", "0,0,1", "--format", "json"])
    assert json.loads(out)["result"] == {"type": "symplectic"}


# -- verify -----------------------------------------------------------------------


def test_verify_passes(capsys):
    rc, out, _ = _call(capsys, ["verify"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "31/31 checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert len(lines) == 32


# -- caching --------------------------------------------------------------------------


def test_fk_cache_lifecycle(capsys, tmp_path):
    argv = ["fk", "--type", "A2", "--k", "3", "--cache-dir", str(tmp_path)]
    rc, out1, _ = _call(capsys, argv)
    assert rc == 0
    path = tmp_path / "fk_A2.json"
    assert path.exists()
    stored = json.loads(path.read_text())
    assert stored["schema"] == 1
    assert stored["fingerprint"] == f"weightcalc-{__version__}"
    assert stored["kind"] == "A" and stored["rank"] == 2
    assert stored["kmax"] >= 3

    rc, out2, _ = _call(capsys, argv)  # warm read
    assert out2 == out1

    path.write_text("this is not json {")  # corrupt: must recompute and heal
    rc, out3, _ = _call(capsys, argv)
    assert rc == 0 and out3 == out1
    assert json.loads(path.read_text())["kind"] == "A"

    path.write_text(json.dumps({"schema": 999}))  # wrong schema: ignored, rebuilt
    rc, out4, _ = _call(capsys, argv)
    assert rc == 0 and out4 == out1
    assert json.loads(path.read_text())["schema"] == 1


def test_cache_is_observationally_invisible(capsys, tmp_path):
    """fk prints the same bytes uncached, with a cold cache and with a warm one."""
    plain = ["fk", "--type", "B2", "--k", "6", "--format", "json"]
    rc, cold, _ = _call(capsys, plain)
    cached = plain + ["--cache-dir", str(tmp_path)]
    rc, first, _ = _call(capsys, cached)
    assert (tmp_path / "fk_B2.json").exists()
    rc, second, _ = _call(capsys, cached)
    assert rc == 0
    assert cold == first == second


def test_warm_cache_hit_parses_only_the_asked_entries(capsys, tmp_path, monkeypatch):
    from weightcalc.polyalg import BiPoly

    argv = ["fk", "--type", "B3", "--k", "2", "--format", "json"]
    rc, plain, _ = _call(capsys, argv)
    assert _call(capsys, ["fk", "--type", "B3", "--k", "12", "--cache-dir", str(tmp_path)])[0] == 0
    parse, calls = BiPoly.from_json_obj, []
    monkeypatch.setattr(BiPoly, "from_json_obj",
                        staticmethod(lambda *a, **kw: calls.append(a) or parse(*a, **kw)))
    rc, warm, _ = _call(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert rc == 0 and warm == plain
    assert len(calls) == 2


def test_unwritable_cache_dir_is_skipped(capsys, tmp_path):
    (tmp_path / "afile").write_text("")
    argv = ["fk", "--type", "A2", "--k", "3"]
    rc, plain, _ = _call(capsys, argv)
    rc, out, err = _call(capsys, argv + ["--cache-dir", str(tmp_path / "afile" / "sub")])
    assert rc == 0 and err == ""
    assert out == plain


def test_incomplete_cache_file_is_rebuilt(capsys, tmp_path):
    argv = ["fk", "--type", "A2", "--k", "3", "--cache-dir", str(tmp_path)]
    rc, out1, _ = _call(capsys, argv)
    path = tmp_path / "fk_A2.json"
    stored = json.loads(path.read_text())
    del stored["entries"]["3"]  # valid schema and fingerprint, kmax >= 3, no entry 3
    path.write_text(json.dumps(stored))
    rc, out2, _ = _call(capsys, argv)
    assert rc == 0 and out2 == out1
    assert "3" in json.loads(path.read_text())["entries"]


@pytest.mark.parametrize("entries", [{"0": [1, 2]}, {"0": {"terms": "zzz"}},
                                     pytest.param(None, id="true-exponent")])
def test_malformed_cache_entry_is_rebuilt(capsys, tmp_path, entries):
    """None stands for the stored entries with one exponent 1 of F_3 written as JSON true."""
    argv = ["fk", "--type", "A2", "--k", "3", "--format", "json", "--cache-dir", str(tmp_path)]
    rc, clean, _ = _call(capsys, argv)
    path = tmp_path / "fk_A2.json"
    stored = json.loads(path.read_text())
    good = stored["entries"]
    if entries is None:
        entries = json.loads(path.read_text())["entries"]
        m = next(t["m"] for t in entries["3"]["terms"] if 1 in t["m"].values())
        m[next(v for v, k in m.items() if k == 1)] = True
    stored["entries"] = entries
    path.write_text(json.dumps(stored))
    rc, out, _ = _call(capsys, argv)
    assert rc == 0 and out == clean
    assert json.loads(path.read_text())["entries"] == good


def test_cache_env_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WEIGHTCALC_CACHE", str(tmp_path))
    rc, _, _ = _call(capsys, ["fk", "--type", "A1", "--k", "2"])
    assert rc == 0
    assert (tmp_path / "fk_A1.json").exists()


# -- errors and exit codes --------------------------------------------------------------


def test_domain_errors_exit_2(capsys):
    rc, out, err = _call(capsys, ["chern", "--group", "PGL2", "--weight", "3"])
    assert rc == 2 and out == ""
    assert err == "error: weight not in character lattice\n"

    rc, out, err = _call(capsys, ["orthotype", "--group", "SO7", "--weight", "0,0,1"])
    assert (rc, out, err) == (2, "", "error: weight not in character lattice\n")

    rc, _, err = _call(capsys, ["powersum", "--type", "A2", "--weight", "1,1"])
    assert rc == 2 and err == "error: this command needs --k\n"

    rc, _, err = _call(capsys, ["powersum", "--type", "H4", "--weight", "1", "--k", "2"])
    assert rc == 2 and err.startswith("error: ")

    rc, _, err = _call(capsys, ["fk", "--type", "A", "--k", "2"])
    assert rc == 2 and "missing rank" in err

    rc, _, err = _call(capsys, ["fk", "--type", "A3", "--rank", "2", "--k", "2"])
    assert rc == 2 and "contradicts" in err

    rc, _, err = _call(capsys, ["oracle", "weights", "--type", "A2", "--weight", "3,3", "--max-dim", "10"])
    assert rc == 2 and "exceeds the guard" in err

    rc, out, err = _call(capsys, ["fk", "--type", "D5", "--k", "20"])  # refused before the fit
    assert (rc, out) == (2, "") and "F_20 of D5 may have 15775529 terms" in err

    rc, _, err = _call(capsys, ["powersum", "--type", "A2", "--weight", "1,x", "--k", "2"])
    assert rc == 2 and "comma-separated integers" in err

    for argv in (["info", "--type", "B3", "--group", "SL3"],
                 ["orthotype", "--type", "B3", "--group", "SL3", "--weight", "1,1"]):
        assert _call(capsys, argv) == (2, "", "error: pass --type or --group, not both\n")


@pytest.mark.parametrize("argv,message", [
    ("info --group SL3 --rank 2", "--rank makes sense only together with --type"),
    ("fk --k 2", "missing root system: pass --type (e.g. --type A2)"),
    ("powersum --weight 1 --k 2", "missing root system: pass --type (e.g. --type A2)"),
    ("oracle weights --weight 1", "missing root system: pass --type (e.g. --type A2)"),
    ("info", "missing root system: pass --type (e.g. --type A2) or --group"),
    ("chern --weight 1,1", "this command needs --group (e.g. --group SL3)"),
    ("chern --group SL3", "this command needs --weight c1,c2,..."),
    ("info --type Q2",
     "bad --type 'Q2'; expected a letter A-G with an optional rank, e.g. A2"),
    ("fk --type A2", "this command needs --k"),
    ("orthotype --type A2", "this command needs --weight c1,c2,..."),
])
def test_flag_errors_exit_2(capsys, argv, message):
    assert _call(capsys, argv.split()) == (2, "", f"error: {message}\n")


def test_internal_error_exits_1(capsys, monkeypatch):
    def broken(*args):
        raise InternalError("P_2 disagrees with the oracle")

    monkeypatch.setattr(cli, "power_sums", broken)
    argv = ["powersum", "--type", "A2", "--weight", "1,1", "--k", "2"]
    assert _call(capsys, argv) == (1, "", "internal error: P_2 disagrees with the oracle\n")


def test_verify_guard_exits_2(capsys):
    """A --max-dim too small for the grid is bad input, not a failed check."""
    rc, out, err = _call(capsys, ["verify", "--max-dim", "1"])
    assert (rc, out) == (2, "")
    assert err == ("error: representation dimension 2 exceeds the guard 1; "
                   "raise max_dim to force the brute-force computation\n")


def test_negative_weight_needs_an_attached_value(capsys):
    rc, out, err = _call(capsys, ["chern", "--group", "GL2", "--weight=-1,-2", "--k", "2"])
    assert rc == 0 and err == "" and out.startswith("degree 2\n")
    with pytest.raises(SystemExit) as exc:  # argparse reads -1,-2 as an option
        main(["chern", "--group", "GL2", "--weight", "-1,-2", "--k", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["swc", "swc-total"])
def test_negative_k_exits_2(capsys, command):
    argv = [command, "--group", "SO12", "--weight", "1,0,0,0,0,0", "--k", "-1"]
    rc, out, err = _call(capsys, argv)
    assert (rc, out, err) == (2, "", "error: --k must be nonnegative\n")


def test_run_propagates_domain_error():
    with pytest.raises(DomainError):
        run(["chern", "--group", "PGL2", "--weight", "3"])


def test_argparse_failures_raise_system_exit(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main([])
    # options that no longer exist, or that a command does not read
    for argv in (
        ["verify", "--jobs", "4"],
        ["powersum", "--type", "A2", "--weight", "1,1", "--k", "2", "--cache-dir", "c"],
        ["oracle", "weights", "--type", "A2", "--weight", "1,1", "--cache-dir", "c"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


#: Options each command accepts besides -h, in the order its usage line shows.
OPTIONS = {
    "info": ["--type", "--rank", "--group", "--format"],
    "fk": ["--type", "--rank", "--k", "--format", "--cache-dir"],
    "powersum": ["--type", "--rank", "--weight", "--k", "--format"],
    "elementary": ["--type", "--rank", "--weight", "--k", "--format"],
    "chern": ["--group", "--weight", "--k", "--s-wrap", "--format"],
    "chern2": ["--group", "--weight", "--format"],
    "swc": ["--group", "--weight", "--k", "--s-wrap", "--format"],
    "swc-total": ["--group", "--weight", "--k", "--s-wrap", "--max-dim", "--format"],
    "spinorial": ["--group", "--weight", "--s-wrap", "--format"],
    "orthotype": ["--type", "--rank", "--group", "--weight", "--format"],
    "oracle weights": ["--type", "--rank", "--weight", "--max-dim", "--format"],
    "verify": ["--max-dim", "--format"],
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_command_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[(--?[\w-]+)", usage) == ["-h", *OPTIONS[command]]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"weightcalc-{__version__}"


def test_installed_entry_point(tmp_path):
    """The declared `weightcalc` console script works as a separate process.

    The entry point is read from this checkout's `pyproject.toml` and run the
    way an installed console script runs it: a fresh interpreter loads the
    declared object, gets the arguments through `sys.argv` and exits with
    `sys.exit(main())`.  The child puts this checkout's `src/` first on its
    path and reports the file its entry-point module came from, so another
    installed copy can neither pass nor fail the test.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    with open(root / "pyproject.toml", "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["weightcalc"]
    script = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint('weightcalc', {value!r}, 'console_scripts')\n"
        "main = ep.load()\n"
        "print(sys.modules[ep.module].__file__, file=sys.stderr)\n"
        "sys.argv[0] = 'weightcalc'\n"
        "sys.exit(main())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "powersum", "--type", "A2", "--weight", "1,1", "--k", "2"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "12*y1^2 - 12*y1*y2 + 12*y2^2\n"
    loaded_from = Path(proc.stderr.splitlines()[0]).resolve()
    assert loaded_from.is_relative_to(src.resolve())


def test_cold_import_loads_every_layer_but_not_tempfile_or_random(tmp_path):
    """A fresh `python -S` interpreter importing the CLI, as each shell command starts.

    Every layer module is loaded; tempfile (only a cache store needs it),
    random (only the sampled fits draw points) and typing (annotations use
    builtin and collections.abc names) are not.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = "import sys, weightcalc.cli\nprint(weightcalc.cli.__file__)\nprint(*sys.modules)\n"
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded_from, modules = proc.stdout.splitlines()
    assert Path(loaded_from).resolve().is_relative_to(src.resolve())
    modules = set(modules.split())
    layers = {"rootsys", "weylsum", "polyalg", "powersum", "charclass", "oracle", "cli"}
    assert {f"weightcalc.{m}" for m in layers} <= modules
    assert not modules & {"tempfile", "random", "typing"}
