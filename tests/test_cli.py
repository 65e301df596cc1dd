"""CLI behavior: parsing, formats, determinism, exit codes."""

import argparse
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import succoeff.verify as verify_module
from succoeff import bound_d2, config
from succoeff.cli import main, parse_angle


class TestParsing:
    def test_plain_float(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle("-1.5e-1") == -0.15

    def test_pi_fractions(self):
        assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
        assert parse_angle("-pi/3") == pytest.approx(-math.pi / 3)
        assert parse_angle("2pi") == pytest.approx(2 * math.pi)
        assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_angle("PI/6") == pytest.approx(math.pi / 6)

    def test_bad_angle(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("tau/4")


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBounds:
    def test_convex_values(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main([
            "bounds", "--family", "convex", "--alpha", "0.5", "--gamma", "0",
            "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        d2 = next(r for r in rows if r["which"] == "d2")
        assert float(d2["lower"]) == pytest.approx(-0.5 / math.sqrt(3))
        assert float(d2["upper"]) == pytest.approx(1 / 6)
        assert d2["lower_extremal"] == "G_CONVEX"

    def test_ozaki_values(self, capsys):
        code = main(["bounds", "--family", "ozaki", "--lambda", "1", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert float(row["lower"]) == pytest.approx(-0.5)
        assert float(row["upper"]) == pytest.approx(1 / 6)

    def test_table_format_default(self, capsys):
        assert main(["bounds", "--family", "spirallike"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("family")


class TestVerify:
    def test_pass_and_determinism(self, tmp_path):
        args = [
            "verify", "--family", "spirallike", "--alpha", "0", "--gamma", "pi/3",
            "--format", "csv",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_determinism(self, tmp_path):
        args = [
            "verify", "--family", "ozaki", "--lambda", "0.25",
            "--format", "json",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert len(payload) == 2
        assert payload[1]["case_check"] == "pass"

    def test_angle_roundtrip_in_report(self, tmp_path):
        out = tmp_path / "v.csv"
        main([
            "verify", "--family", "spirallike", "--gamma", "pi/6",
            "--format", "csv", "--out", str(out),
        ])
        _, rows = read_csv(out)
        assert float(rows[0]["gamma"]) == pytest.approx(math.pi / 6, rel=0, abs=1e-16)

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        # A closed-form lower endpoint of d2 that sits 1e-6 above the true
        # minimum must be flagged by a 1e-7 tolerance.
        def shifted(params):
            interval = bound_d2(params)
            return dataclasses.replace(interval, lower=interval.lower + 1e-6)

        monkeypatch.setattr(verify_module, "bound_d2", shifted)
        code = main([
            "verify", "--family", "convex", "--alpha", "0.9", "--gamma", "0",
            "--tol", "1e-7",
            "--format", "csv", "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 1


class TestSweep:
    def test_small_lattice(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "spirallike",
            "--alphas", "0,0.25,2", "--gammas=-pi/6,pi/6,3",
            "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert len(rows) == 6
        assert header[-1] == "passed"
        assert all(r["passed"] == "true" for r in rows)
        alphas = [float(r["alpha"]) for r in rows]
        assert alphas == sorted(alphas)

    def test_ozaki_lattice_branch_continuity(self, tmp_path):
        out = tmp_path / "oz.csv"
        code = main([
            "sweep", "--family", "ozaki", "--lambdas", "0.1,1.0,10",
            "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 10
        lows = [float(r["d2_lower"]) for r in rows]
        jumps = [abs(b - a) for a, b in zip(lows, lows[1:])]
        assert max(jumps) < 0.07  # lower endpoint moves continuously across lam = 1/2

    def test_empty_lattice(self, tmp_path):
        out = tmp_path / "empty.csv"
        with pytest.raises(SystemExit) as info:
            main([
                "sweep", "--family", "spirallike", "--alphas", "0,0.5,0",
                "--format", "csv", "--out", str(out),
            ])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "ozaki", "--alphas", "0,0.5,2"],
        ["--family", "ozaki", "--gammas=-pi/6,pi/6,3"],
        ["--family", "spirallike", "--lambdas", "0.1,1,3"],
        ["--family", "convex", "--lambdas", "0.1,1,3"],
    ])
    def test_axis_of_another_family_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--format", "csv", "--out", str(out)]) == 2
        assert "does not apply" in capsys.readouterr().err
        assert not out.exists()


class TestExtremalAndSample:
    def test_extremal_rows_pass(self, tmp_path):
        out = tmp_path / "ex.csv"
        code = main([
            "extremal", "--family", "convex", "--alpha", "0", "--gamma", "0",
            "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert all(r["passed"] == "true" for r in rows)
        assert all(float(r["residual"]) <= 1e-9 for r in rows)
        q = next(r for r in rows if r["extremal"] == "Q" and r["which"] == "d2")
        assert float(q["a3_re"]) == pytest.approx(1 / 3)

    def test_extremal_starlike_rows(self, tmp_path):
        out = tmp_path / "ex.csv"
        assert main([
            "extremal", "--family", "spirallike", "--alpha", "0", "--gamma", "0",
            "--format", "csv", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        k = next(r for r in rows if r["extremal"] == "K")
        assert float(k["a2_re"]) == pytest.approx(2.0)
        assert float(k["a3_re"]) == pytest.approx(3.0)
        assert float(k["d1"]) == pytest.approx(1.0)
        f = next(r for r in rows if r["extremal"] == "F_SPIRAL")
        assert float(f["a2_re"]) == pytest.approx(1.0)
        assert abs(complex(float(f["a3_re"]), float(f["a3_im"]))) < 1e-10
        assert float(f["d2"]) == pytest.approx(-1.0)

    def test_sample_passes(self, tmp_path):
        code = main([
            "sample", "--family", "ozaki", "--lambda", "1", "--samples", "100",
            "--seed", "5", "--format", "json", "--out", str(tmp_path / "s.json"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        assert payload[0]["violations"] == 0


class TestUsageErrors:
    def test_bad_family(self):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--family", "elliptic"])
        assert info.value.code == 2

    def test_out_of_range_alpha(self, capsys):
        assert main(["bounds", "--family", "spirallike", "--alpha", "1.5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--tol", "-1"],
        ["verify", "--tol", "nan"],
        ["verify", "--grid", "101,51,64"],
        ["sample", "--seed", "-1"],
        ["extremal", "--order", "3"],
        ["extremal", "--order", "-5"],
        ["extremal", "--order", "1025"],
        ["sample", "--samples", "0"],
        ["sample", "--atoms-max", "0"],
        ["sample", "--atoms-max", str(config.MAX_ATOMS + 1)],
    ])
    def test_rejected_flag_values(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "bounds.csv"
        assert main(["bounds", "--format", "csv", "--out", str(out)]) == 2
        assert "succoeff: cannot write" in capsys.readouterr().err


class TestConfigFile:
    @pytest.mark.parametrize("spelling", ["space", "equals"])
    def test_defaults_and_precedence(self, tmp_path, capsys, spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# defaults for a study\n"
            "family=convex\n"
            "alpha=0.5\n"
            "gamma=pi/6\n"
            "format=csv\n",
            encoding="utf-8",
        )
        # --gamma on the command line beats the file; family comes from it.
        flag = ["--config", str(cfg)] if spelling == "space" else [f"--config={cfg}"]
        assert main(["bounds", *flag, "--gamma", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["family"] == "convex"
        assert float(row["alpha"]) == 0.5
        assert float(row["gamma"]) == 0.0

    def test_bad_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for line in ("volume=11", "help=1", "config=other.cfg"):
            cfg.write_text(line + "\n", encoding="utf-8")
            assert main(["bounds", "--config", str(cfg)]) == 2
            assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "format=xml", "family=elliptic", "seed=-1", "order=2", "tol=-1",
        "samples=0", "atoms_max=0", f"atoms_max={config.MAX_ATOMS + 1}",
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# checked like the flag\n{line}\n", encoding="utf-8")
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err

    def test_key_of_another_subcommand_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=7\n", encoding="utf-8")
        assert main(["bounds", "--config", str(cfg)]) == 0

    def test_keys_are_long_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alphas=0,0.25,2\ngammas=-pi/6,pi/6,3\natoms_max=3\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 6


def test_readme_examples(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.splitlines() if line.startswith("succoeff ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "succoeff.cli", "bounds", "--family", "ozaki",
         "--lambda", "0.5", "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("family,")


def test_sample_accepts_the_largest_atom_count(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["sample", "--samples", "3", "--atoms-max", str(config.MAX_ATOMS)]
    assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
    assert read_csv(out)[1][0]["n_atoms_max"] == str(config.MAX_ATOMS)


def test_commands_load_only_the_standard_library():
    # Every module a command loads beyond the interpreter's start-up ones
    # is in the standard library or in the package.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from succoeff.cli import main\n"
        "for argv in ([], ['--family', 'ozaki', '--lambda', '0.3']):\n"
        "    for cmd in ('bounds', 'verify', 'extremal'):\n"
        "        main([cmd, *argv, '--format', 'csv'])\n"
        "main(['sweep', '--alphas', '0,0.5,2', '--format', 'csv'])\n"
        "main(['sample', '--samples', '20', '--order', '16', '--format', 'csv'])\n"
        "loaded = set(sys.modules) - before\n"
        "print(sorted(m for m in loaded if m.split('.')[0] not in sys.stdlib_module_names\n"
        "             and m.split('.')[0] != 'succoeff'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_import_does_not_load_scipy():
    # scipy may be installed alongside numpy; the package must not pull it in.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, succoeff.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
