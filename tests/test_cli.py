"""CLI behavior: parsing, formats, determinism, exit codes."""

import argparse
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import succoeff
import succoeff.bounds as bounds_module
import succoeff.caratheodory as caratheodory_module
import succoeff.cli as cli_module
import succoeff.verify as verify_module
from succoeff import ClassParams, Which, config
from succoeff.cli import _build_parser, main, parse_angle, parse_range
from succoeff.errors import InfeasibleError
from conftest import gated
from test_command_map import every_command_run, load_differences
from test_outputs import cli_rows, out_flags, parse_rows, run_cli


class TestParsing:
    def test_plain_float(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle("-1.5e-1") == -0.15

    def test_pi_fractions(self):
        assert parse_angle("pi/4") == gated(math.pi / 4)
        assert parse_angle("-pi/3") == gated(-math.pi / 3)
        assert parse_angle("2pi") == gated(2 * math.pi)
        assert parse_angle("0.5pi") == gated(math.pi / 2)
        assert parse_angle("PI/6") == gated(math.pi / 6)

    def test_bad_angle(self):
        for text in ("tau/4", "pi/0", "-2pi/0.0", "pi/.0"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_angle(text)

    def test_range_is_parsed_not_built(self):
        # The axis is built after the family checks, so a usage error on a
        # long axis is reported at once, and a second parse costs nothing.
        assert parse_range("0, pi/2, 100000000") == (0.0, math.pi / 2, 100000000)


class TestBounds:
    def test_convex_values(self, tmp_path):
        code, rows = cli_rows(["bounds", "--family", "convex", "--alpha", "0.5", "--gamma", "0"],
                              tmp_path)
        assert code == 0
        d2 = next(r for r in rows if r["which"] == "d2")
        assert float(d2["lower"]) == gated(-0.5 / math.sqrt(3))
        assert float(d2["upper"]) == gated(1 / 6)
        assert d2["lower_extremal"] == "G_CONVEX"

    def test_ozaki_values(self, capsys):
        code = main(["bounds", "--family", "ozaki", "--lambda", "1", "--format", "csv"])
        assert code == 0
        row = parse_rows(capsys.readouterr().out, "csv")[1]
        assert float(row["lower"]) == gated(-0.5)
        assert float(row["upper"]) == gated(1 / 6)

    def test_table_format_default(self, capsys):
        assert main(["bounds", "--family", "spirallike"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("family")


class TestVerify:
    def test_pass_and_determinism(self, tmp_path):
        argv = ["verify", "--family", "spirallike", "--alpha", "0", "--gamma", "pi/3"]
        (code1, out1), (code2, out2) = (run_cli(argv, "csv", tmp_path) for _ in range(2))
        assert (code1, code2) == (0, 0)
        assert out1 and out1 == out2

    def test_json_determinism(self, tmp_path):
        argv = ["verify", "--family", "ozaki", "--lambda", "0.25"]
        (code1, out1), (code2, out2) = (run_cli(argv, "json", tmp_path) for _ in range(2))
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        payload = parse_rows(out1.decode("utf-8"), "json")
        assert len(payload) == 2
        assert payload[1]["case_check"] == "pass"

    def test_angle_roundtrip_in_report(self, tmp_path):
        _, rows = cli_rows(["verify", "--family", "spirallike", "--gamma", "pi/6"], tmp_path)
        assert float(rows[0]["gamma"]) == pytest.approx(math.pi / 6, rel=0, abs=1e-16)

    @pytest.mark.parametrize("params,point", [
        (ClassParams.spirallike(0.25, math.pi / 6),
         ["--family", "spirallike", "--alpha", "0.25", "--gamma", "pi/6"]),
        (ClassParams.convex(0.9, 0.0), ["--family", "convex", "--alpha", "0.9", "--gamma", "0"]),
        (ClassParams.ozaki(0.25), ["--family", "ozaki", "--lambda", "0.25"]),
        (ClassParams.ozaki(0.75), ["--family", "ozaki", "--lambda", "0.75"]),
    ])
    def test_case_check_failure(self, monkeypatch, capsys, params, point):
        # A c* 1e-12 off the exact argmin fails the case check and nothing else.
        def rows(code):
            assert main(["verify", *point, "--format", "csv"]) == code
            return parse_rows(capsys.readouterr().out, "csv")

        assert verify_module.case_boundary_check(params).passed
        before = rows(0)
        assert [r["case_check"] for r in before] == ["", "pass"]
        exact = verify_module.two_atom_parameters

        def shifted(p):
            c_star, x_star = exact(p)
            return c_star + 1e-12, x_star

        monkeypatch.setattr(verify_module, "two_atom_parameters", shifted)
        assert not verify_module.case_boundary_check(params).passed
        after = rows(1)
        assert after[0] == before[0]
        # every endpoint, argmin and attainment cell is unchanged
        assert after[1] == {**before[1], "case_check": "fail", "passed": "false"}


class TestGates:
    """A closed-form endpoint moved by 1e-12 fails every command that can see it.

    The bounds are sharp, so each verdict forgives roundoff only: 1e-12 is
    about 280 gates at these points.
    """

    POINTS = [
        ["--family", "spirallike", "--alpha", "0.25", "--gamma", "0.5"],
        ["--family", "convex", "--alpha", "0.3", "--gamma", "0.2"],
        ["--family", "ozaki", "--lambda", "0.3"],
    ]
    SMALL_T_POINT = ["--family", "convex", "--alpha", "0.9", "--gamma", "0"]  # T < 5/4

    @staticmethod
    def shift(monkeypatch, bound, **deltas):
        # Every module that reads the closed form sees the shifted one.
        exact = getattr(bounds_module, bound)

        def shifted(params):
            interval = exact(params)
            return interval._replace(**{k: getattr(interval, k) + d for k, d in deltas.items()})

        for module in (bounds_module, verify_module, cli_module):
            monkeypatch.setattr(module, bound, shifted)

    @staticmethod
    def codes(point, tmp_path, commands=("verify", "extremal", "sample")):
        return {command: cli_rows([command, *point], tmp_path)[0] for command in commands}

    @pytest.mark.parametrize("point", POINTS)
    def test_d1_upper_shift_fails_every_command(self, monkeypatch, tmp_path, point):
        assert self.codes(point, tmp_path) == {"verify": 0, "extremal": 0, "sample": 0}
        # Every one-atom member attains d1 upper, so the default sample meets it.
        self.shift(monkeypatch, "bound_d1", upper=-1e-12)
        assert self.codes(point, tmp_path) == {"verify": 1, "extremal": 1, "sample": 1}

    @pytest.mark.parametrize("point", POINTS)
    def test_c_star_shift_fails_verify_and_sweep(self, monkeypatch, tmp_path, point):
        # The d2 lower extremal built at a c* moved by 1e-12 misses its
        # endpoint, and c* misses the exact argmin: both commands see it.
        exact = bounds_module.two_atom_parameters

        def shifted(params):
            c_star, x_star = exact(params)
            return c_star + 1e-12, x_star

        for module in (bounds_module, verify_module):
            monkeypatch.setattr(module, "two_atom_parameters", shifted)
        for command in ("verify", "sweep"):
            code, rows = cli_rows([command, *point], tmp_path)
            assert code == 1
            assert rows[-1]["passed"] == "false"

    @pytest.mark.parametrize("point", [*POINTS, SMALL_T_POINT])
    def test_d2_lower_shift_fails_verify_and_extremal(self, monkeypatch, tmp_path, point):
        # sample's members stay farther from d2 lower than 1e-12 (see the
        # README's detection floor), so only the exact checks can see it,
        # whichever way the endpoint moves.
        for delta in (-1e-12, 1e-12):
            with monkeypatch.context() as patch:
                self.shift(patch, "bound_d2", lower=delta)
                codes = self.codes(point, tmp_path, ("verify", "extremal"))
            assert codes == {"verify": 1, "extremal": 1}, delta


class TestSweep:
    def test_small_lattice(self, tmp_path):
        code, rows = cli_rows(["sweep", "--family", "spirallike",
                               "--alphas", "0,0.25,2", "--gammas=-pi/6,pi/6,3"], tmp_path)
        assert code == 0
        assert len(rows) == 6
        assert list(rows[0])[-1] == "passed"
        assert all(r["passed"] == "true" for r in rows)
        alphas = [float(r["alpha"]) for r in rows]
        assert alphas == sorted(alphas)

    def test_ozaki_lattice_branch_continuity(self, tmp_path):
        code, rows = cli_rows(["sweep", "--family", "ozaki", "--lambdas", "0.1,1.0,10"], tmp_path)
        assert code == 0
        assert len(rows) == 10
        lows = [float(r["d2_lower"]) for r in rows]
        jumps = [abs(b - a) for a, b in zip(lows, lows[1:])]
        assert max(jumps) < 0.07  # lower endpoint moves continuously across lam = 1/2

    @pytest.mark.parametrize("family, axis, ends", [
        ("ozaki", "lambdas", ("0.1", "0.9")), ("convex", "gammas", ("-pi/6", "pi/3"))])
    @pytest.mark.parametrize("as_config", [False, True], ids=["flags", "config"])
    def test_axis_ends_in_either_order(self, tmp_path, family, axis, ends, as_config):
        # An axis steps from its smaller end, so START,STOP and STOP,START
        # print the same bytes; a COUNT of 1 is START alone, either end.
        def argv(value):
            if not as_config:
                return ["sweep", "--family", family, f"--{axis}={value}"]
            cfg = tmp_path / "axis.cfg"
            cfg.write_text(f"family={family}\n{axis}={value}\n", encoding="utf-8")
            return ["sweep", "--config", str(cfg)]

        outputs = [run_cli(argv(f"{start},{stop},5"), "csv", tmp_path)
                   for start, stop in (ends, ends[::-1])]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0
        for start, stop in (ends, ends[::-1]):
            code, (row,) = cli_rows(argv(f"{start},{stop},1"), tmp_path)
            assert (code, float(row[axis[:-1]])) == (0, parse_angle(start))

    def test_empty_lattice(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli(["sweep", "--family", "spirallike", "--alphas", "0,0.5,0"], "csv", tmp_path)
        assert info.value.code == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "ozaki", "--alphas", "0,0.5,2"],
        ["sweep", "--family", "ozaki", "--gammas=-pi/6,pi/6,3"],
        ["sweep", "--family", "spirallike", "--lambdas", "0.1,1,3"],
        ["sweep", "--family", "convex", "--lambdas", "0.1,1,3"],
        ["bounds", "--family", "ozaki", "--alpha", "0.3"],
        ["bounds", "--family", "spirallike", "--lambda", "1"],
        ["verify", "--family", "ozaki", "--gamma", "0"],
        ["extremal", "--family", "convex", "--lambda", "0.5"],
        ["sample", "--family", "ozaki", "--alpha", "0.3"],
        ["sweep", "--family", "ozaki", "--alpha", "0.3"],
        ["sweep", "--alpha", "0.3", "--alphas", "0,0.5,2"],
        ["sweep", "--family", "convex", "--gamma", "0", "--gammas=-pi/6,pi/6,3"],
        ["sweep", "--family", "ozaki", "--lambda", "0.5", "--lambdas", "0.1,1,3"],
    ])
    def test_axis_of_another_family_rejected(self, tmp_path, capsys, argv):
        # A point flag or axis of another family, and a point flag that its
        # own axis spans, is a usage error of every command, not ignored.
        assert cli_rows(argv, tmp_path) == (2, None)
        assert "does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize("as_config", [False, True], ids=["flags", "config"])
    def test_lattice_cap(self, tmp_path, capsys, monkeypatch, as_config):
        # A lattice of more than MAX_LATTICE points is a usage error, from
        # flags or from config keys, found before any point is built; one of
        # MAX_LATTICE points runs, at a cap of 6 to keep it quick.
        def rows(alphas, gammas):
            if not as_config:
                return cli_rows(["sweep", "--alphas", alphas, f"--gammas={gammas}"], tmp_path)
            cfg = tmp_path / "lattice.cfg"
            cfg.write_text(f"alphas={alphas}\ngammas={gammas}\n", encoding="utf-8")
            return cli_rows(["sweep", "--config", str(cfg)], tmp_path)

        assert rows("0,0.5,11", "-1,1,9091") == (2, None)
        assert "the lattice has 100001 points, more than 100000" in capsys.readouterr().err
        monkeypatch.setattr(config, "MAX_LATTICE", 6)
        code, lattice = rows("0,0.25,2", "-pi/6,pi/6,3")
        assert code == 0
        assert len(lattice) == 6
        assert rows("0,0.25,7", "0,0,1") == (2, None)
        assert "the lattice has 7 points, more than 6" in capsys.readouterr().err


class TestExtremalAndSample:
    def test_extremal_rows_pass(self, tmp_path):
        code, rows = cli_rows(["extremal", "--family", "convex", "--alpha", "0", "--gamma", "0"],
                              tmp_path)
        assert code == 0
        assert all(r["passed"] == "true" for r in rows)
        assert all(float(r["residual"]) <= config.gate(float(r["target"])) for r in rows)
        q = next(r for r in rows if r["extremal"] == "Q" and r["which"] == "d2")
        assert float(q["a3_re"]) == gated(1 / 3)

    def test_extremal_starlike_rows(self, tmp_path):
        code, rows = cli_rows(
            ["extremal", "--family", "spirallike", "--alpha", "0", "--gamma", "0"], tmp_path)
        assert code == 0
        k = next(r for r in rows if r["extremal"] == "K")
        assert float(k["a2_re"]) == gated(2.0)
        assert float(k["a3_re"]) == gated(3.0)
        assert float(k["d1"]) == gated(1.0)
        f = next(r for r in rows if r["extremal"] == "F_SPIRAL")
        assert float(f["a2_re"]) == gated(1.0)
        assert abs(complex(float(f["a3_re"]), float(f["a3_im"]))) == gated(0.0)
        assert float(f["d2"]) == gated(-1.0)

    @pytest.mark.parametrize("point", [
        ["--family", "convex", "--alpha", "0.5", "--gamma", "1.4"],
        ["--family", "spirallike", "--alpha", "0.25", "--gamma", "0.5"],
        ["--family", "ozaki", "--lambda", "0.6"],
    ])
    def test_sample_order_is_only_echoed(self, tmp_path, point):
        # The verdicts read a2 and a3 only, so --order changes no other column.
        rows = {}
        for order in ("4", "12", "1024"):
            code, (row,) = cli_rows(
                ["sample", *point, "--samples", "300", "--seed", "3", "--order", order], tmp_path)
            assert code == 0
            assert row.pop("order") == order
            rows[order] = row
        assert rows["4"] == rows["12"] == rows["1024"]

    def test_sample_config_order_is_only_echoed(self, tmp_path):
        # A config key reaches the column as the flag does: order=128 prints
        # 128, and every other cell and the header are those of --order 12.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order=128\n", encoding="utf-8")
        argv = ["sample", "--samples", "300", "--seed", "3"]
        (code, (row,)), (want_code, (want_row,)) = (
            cli_rows([*argv, "--config", str(cfg)], tmp_path),
            cli_rows([*argv, "--order", "12"], tmp_path))
        assert (code, want_code) == (0, 0)
        assert list(row) == list(want_row)  # the header
        assert (row.pop("order"), want_row.pop("order")) == ("128", "12")
        assert row == want_row

    def test_sample_passes(self, tmp_path):
        code, payload = cli_rows(["sample", "--family", "ozaki", "--lambda", "1", "--samples",
                                  "100", "--seed", "5"], tmp_path, "json")
        assert code == 0
        assert payload[0]["violations"] == 0


_SOLVE_POINT = ["--family", "spirallike", "--alpha", "0.25", "--gamma", "0.5"]


@pytest.mark.parametrize("argv, solves", [
    (["bounds", *_SOLVE_POINT], 0),
    # The axis spans alpha, so the point gives gamma only.
    (["sweep", "--family", "spirallike", "--alphas", "0,0.5,2", "--gamma", "0.5"], 2),
    (["sample", "--samples", "20", *_SOLVE_POINT], 0),
    (["extremal", *_SOLVE_POINT], 1),
    (["verify", *_SOLVE_POINT], 1),
    # c* = 2: the one solve raises DegenerateError, and the point mass at 1 is read.
    (["extremal", "--family", "ozaki", "--lambda", "0.75"], 1),
], ids=["bounds", "sweep", "sample", "extremal", "verify", "extremal-degenerate"])
def test_two_atom_solves_per_command(argv, solves, monkeypatch, tmp_path):
    # The d2 lower extremal's measure is solved only where a command reads
    # that extremal's coefficients, once per point; solve_two_atom alone
    # decides whether c* is degenerate.
    calls = []
    solve = caratheodory_module.solve_two_atom

    def counted(c, x):
        calls.append((c, x))
        return solve(c, x)

    monkeypatch.setattr(caratheodory_module, "solve_two_atom", counted)
    assert cli_rows(argv, tmp_path)[0] == 0
    assert len(calls) == solves


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
        ["sweep", "--lambdas", "0.1,1"],
        ["bounds", "--family", "ozaki", "--lambda", "one"],
        ["verify", "--grid", "101,51,64"],
        ["sample", "--seed", "-1"],
        ["sample", "--order", "3"],
        ["sample", "--order", "-5"],
        ["sample", "--order", "1025"],
        ["sample", "--samples", "0"],
        ["sample", "--atoms-max", "0"],
        ["sample", "--atoms-max", "65"],
        ["bounds", "--gamma", "pi/0"],
        ["sweep", "--gammas=0,pi/0,3"],
        ["sample", "--samples", "2.5"],
    ])
    def test_rejected_flag_values(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "--seed", "3"],
        ["bounds", "--tol", "1e-9"],
        ["bounds", "--order", "16"],
        ["sweep", "--seed", "3"],
        ["sweep", "--order", "16"],
        ["verify", "--seed", "3"],
        ["extremal", "--seed", "3"],
        ["extremal", "--tol", "1e-9"],
        ["sample", "--tol", "1e-9"],
        ["verify", "--order", "16"],
        ["extremal", "--order", "16"],
        ["verify", "--tol", "1e-9"],
        ["sweep", "--tol", "1e-9"],
        ["verify", "--tol", "-1"],
        ["verify", "--tol", "nan"],
    ])
    def test_flag_the_command_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "ozaki", "--lambda", "0.3"],
        ["sweep", "--alphas", "0,0.5,2"],
        ["sample", "--order", "16", "--seed", "3"],
        ["sample", "--samples", "20", "--atoms-max", "2"],
        ["sample", "--seed", "0"],
        ["sample", "--samples", "1"],
    ])
    def test_flags_the_command_reads(self, argv, tmp_path):
        assert cli_rows(argv, tmp_path)[0] == 0

    def test_unwritable_out(self, tmp_path, capsys):
        assert cli_rows(["bounds"], tmp_path / "missing") == (2, None)
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
        row = parse_rows(capsys.readouterr().out, "csv")[0]
        assert row["family"] == "convex"
        assert float(row["alpha"]) == 0.5
        assert float(row["gamma"]) == 0.0

    def test_bad_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for line in ("volume=11", "help=1", "config=other.cfg", "tol=1e-9"):
            cfg.write_text(line + "\n", encoding="utf-8")
            assert main(["bounds", "--config", str(cfg)]) == 2
            assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "format=xml", "family=elliptic", "seed=-1", "order=2", "lambdas=0.1,1",
        "samples=0", "atoms_max=0", f"atoms_max={config.MAX_ATOMS + 1}",
        "gamma=pi/0", "seed=x", "family convex",
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# checked like the flag\n{line}\n", encoding="utf-8")
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # Each spelling of a key names the same flag, so a later line would
        # silently drop the earlier value.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=convex\nalpha=0.1\nALPHA = 0.9\natoms_max=6\natoms-max=64\n"
                       "samples=5\n", encoding="utf-8")
        assert main(["sample", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"succoeff: {cfg}:3: alpha: already set on line 2\n"
        cfg.write_text("atoms_max=6\natoms-max=64\n", encoding="utf-8")
        assert main(["sample", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"succoeff: {cfg}:2: atoms-max: already set on line 1\n"

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        # Some editors start a UTF-8 file with a byte order mark.
        text = b"family=convex\nalpha=0.5\nformat=csv\n"
        outputs = []
        for name, data in (("plain.cfg", text), ("bom.cfg", b"\xef\xbb\xbf" + text)):
            cfg = tmp_path / name
            cfg.write_bytes(data)
            outputs.append((main(["bounds", "--config", str(cfg)]), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][1].out.startswith("family,")

    def test_not_utf8_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"family=convex\n\xff\n")
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"succoeff: {cfg}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("argv, line", [
        (["bounds"], "lambda=0.5"),
        (["sample", "--family", "ozaki"], "gamma=0"),
        (["sweep", "--alphas", "0,0.5,2"], "alpha=0.3"),
    ])
    def test_point_key_of_another_family_rejected(self, tmp_path, capsys, argv, line):
        # A config key is checked like the flag it names.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main([*argv, "--config", str(cfg)]) == 2
        assert "does not apply" in capsys.readouterr().err

    def test_key_of_another_subcommand_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=7\n", encoding="utf-8")
        assert main(["bounds", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("command", ["bounds", "verify", "extremal", "sample"])
    @pytest.mark.parametrize("base, axis", [
        pytest.param("", "alphas=0,0.25,2", id="alphas"),
        pytest.param("", "alphas=0.3,0.9,1", id="alphas-count1"),
        pytest.param("family=convex\nalpha=0.5\n", "alphas=0,0.25,2", id="alpha-alphas"),
        pytest.param("family=ozaki\n", "gammas=-pi/6,pi/6,3", id="ozaki-gammas"),
        pytest.param("family=ozaki\nlambda=0.3\n", "lambdas=0.1,1,1", id="lambda-lambdas"),
    ])
    def test_axis_key_has_no_effect_elsewhere(self, tmp_path, capsys, command, base, axis):
        # A file that serves sweep neither moves nor breaks another command.
        outputs = []
        for name, text in (("plain.cfg", base), ("axis.cfg", f"{base}{axis}\n")):
            cfg = tmp_path / name
            cfg.write_text(f"{text}samples=20\nformat=csv\n", encoding="utf-8")
            outputs.append((main([command, "--config", str(cfg)]), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][1].out.startswith("family,")

    def test_keys_are_long_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alphas=0,0.25,2\ngammas=-pi/6,pi/6,3\natoms_max=3\n", encoding="utf-8")
        code, rows = cli_rows(["sweep", "--config", str(cfg)], tmp_path)
        assert code == 0
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
    # The Python quickstart runs as written.
    snippets = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert snippets
    for code in snippets:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_detection_floor(capsys):
    # The README's table of sample's worst margins is what its commands print.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Detection floor of `sample`")[1].split("\n## ")[0].splitlines()
    commands = [shlex.split(line)[1:] for line in section if line.startswith("succoeff sample")]
    table = [[cell.strip() for cell in line.strip("|").split("|")]
             for line in section if line.startswith("| ") and not line.startswith("| point")]
    assert len(commands) == len(table) == 3
    sides = ("d1_low_margin", "d1_high_margin", "d2_low_margin", "d2_high_margin")
    for argv, cells in zip(commands, table):
        assert main(argv) == 0
        row = parse_rows(capsys.readouterr().out, "csv")[0]
        assert cells[1:] == [f"{float(row[side]):.1e}" for side in sides], cells[0]


# The directory that holds the package under test.  A child interpreter
# finds the package only through PYTHONPATH: it is not installed, and pytest
# puts it on sys.path of this process only.
_PACKAGE_ROOT = str(Path(succoeff.__file__).resolve().parent.parent)
_PACKAGE_ENV = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "succoeff.cli", "bounds", "--family", "ozaki",
         "--lambda", "0.5", "--format", "csv"],
        capture_output=True, text=True, env=_PACKAGE_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("family,")


def test_sample_default_atom_count(tmp_path):
    # The flag and the library default read one constant; the README's
    # other defaults of sample are 500 members and seed 0.
    code, (row,) = cli_rows(["sample"], tmp_path)
    assert code == 0
    assert (row["n_atoms_max"], row["n_samples"], row["seed"]) == (str(config.DEFAULT_ATOMS),
                                                                    "500", "0")
    report = verify_module.sample_no_violation(ClassParams.spirallike(), 3)
    assert (report.n_atoms_max, report.seed) == (config.DEFAULT_ATOMS, 0)


def test_sample_accepts_the_largest_atom_count(tmp_path):
    code, (row,) = cli_rows(["sample", "--samples", "3", "--atoms-max", str(config.MAX_ATOMS)],
                            tmp_path)
    assert code == 0
    assert row["n_atoms_max"] == str(config.MAX_ATOMS)


_COMMAND_ARGV = {
    "bounds": [], "extremal": [], "verify": [],
    "sweep": ["--alphas", "0,0.5,2"], "sample": ["--samples", "20"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGV))
def test_commands_load_only_what_they_run(command, fmt):
    # What the command's digest lines load in a fresh interpreter, with site
    # and under -S: "csv" after they run in csv and table, "json" after they
    # also run in json.  All ten cases read test_command_map's one pass.
    problems = load_differences(every_command_run(), command, fmt)
    assert not problems, "\n".join(problems)


# Each table's columns, in order, as its CSV header prints them.
_HEADERS = {
    "bounds": "family,alpha,gamma,lambda,which,lower,upper,lower_extremal,upper_extremal",
    "verify": "family,alpha,gamma,lambda,which,"
              "analytic_lower,analytic_upper,numeric_min,numeric_max,residual_min,residual_max,"
              "argmin_c,argmin_r,argmin_theta,argmax_c,argmax_r,argmax_theta,"
              "lower_attainment,upper_attainment,"
              "lower_attainment_residual,upper_attainment_residual,case_check,passed",
    "sweep": "family,alpha,gamma,lambda,"
             "d1_lower,d1_upper,d1_min,d1_max,d1_residual_min,d1_residual_max,"
             "d2_lower,d2_upper,d2_min,d2_max,d2_residual_min,d2_residual_max,error,passed",
    "extremal": "family,alpha,gamma,lambda,extremal,which,"
                "a2_re,a2_im,a3_re,a3_im,d1,d2,target,residual,passed",
    "sample": "family,alpha,gamma,lambda,n_samples,n_atoms_max,seed,order,"
              "constructed,failures,violations,"
              "d1_low_margin,d1_high_margin,d2_low_margin,d2_high_margin,passed",
}


@pytest.mark.parametrize("command", sorted(_HEADERS))
def test_table_headers(command, tmp_path):
    # CSV, JSON and the table name the same columns in the same order.
    columns = _HEADERS[command].split(",")
    text = {}
    for fmt in ("csv", "json", "table"):
        code, data = run_cli([command, *_COMMAND_ARGV[command]], fmt, tmp_path)
        assert code == 0
        text[fmt] = data.decode("utf-8")
    assert text["csv"].splitlines()[0] == _HEADERS[command]
    assert all(list(row) == columns for row in parse_rows(text["json"], "json"))
    assert text["table"].splitlines()[0].split() == columns


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGV))
def test_csv_and_json_print_the_same_reals(command, tmp_path):
    # CSV prints reals with %.17g and JSON with the shortest round-trip
    # repr (0.75516512378074552 and 0.7551651237807455): each cell gives
    # back the same float, -0.0 and 0.0 told apart.
    argv = [command, *_COMMAND_ARGV[command], "--gamma=0.5"]
    (csv_code, csv_rows), (json_code, json_rows) = (cli_rows(argv, tmp_path, fmt)
                                                    for fmt in ("csv", "json"))
    assert (csv_code, json_code) == (0, 0)
    assert len(csv_rows) == len(json_rows)
    reals = [(csv_row[key], value) for csv_row, json_row in zip(csv_rows, json_rows)
             for key, value in json_row.items() if isinstance(value, float)]
    assert reals
    assert [float(cell).hex() for cell, _ in reals] == [value.hex() for _, value in reals]


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_optimizer_error_stops_the_command(command, tmp_path, monkeypatch, capsys):
    # A point whose d2 optimization raises stops sweep as it stops verify:
    # exit 1, the message on stderr and no --out file.
    optimize = verify_module.grid_optimize

    def failing(spec, **kwargs):
        if spec.which is Which.D2:
            raise InfeasibleError("no d2 here")
        return optimize(spec, **kwargs)

    monkeypatch.setattr(verify_module, "grid_optimize", failing)
    assert cli_rows([command, *_COMMAND_ARGV[command]], tmp_path) == (1, None)
    assert capsys.readouterr().err == "succoeff: no d2 here\n"


# A -0 spelling of each point flag or axis, and its spelling at 0.
_SIGNED_ZEROS = {
    "--alpha=-0": "--alpha=0",
    "--gamma=-0.0": "--gamma=0",
    "--gamma=-0*pi": "--gamma=0",
    "--gammas=-0.0,0,1": "--gammas=0,0,1",
}


@pytest.mark.parametrize("argv", [
    *([command, *_COMMAND_ARGV[command], flag]
      for command in ("bounds", "extremal", "sample", "verify")
      for flag in ("--alpha=-0", "--gamma=-0.0", "--gamma=-0*pi")),
    ["sweep", "--gammas=0,0.5,2", "--alpha=-0"],
    ["sweep", "--alphas", "0,0.5,2", "--gamma=-0.0"],
    ["sweep", "--alphas", "0,0.5,2", "--gamma=-0*pi"],
    ["sweep", "--alphas", "0,0.5,2", "--gammas=-0.0,0,1"],
], ids=" ".join)
def test_signed_zero_prints_as_zero(argv, tmp_path):
    # Outputs do not depend on how a flag is spelled: -0 gives the bytes of 0.
    zero = [_SIGNED_ZEROS.get(arg, arg) for arg in argv]
    assert zero != argv
    for fmt in ("csv", "json"):
        (code, data), (zero_code, zero_data) = (run_cli(a, fmt, tmp_path) for a in (argv, zero))
        assert (code, zero_code) == (0, 0)
        assert data and data == zero_data


def test_benchmark_command_lines_parse(tmp_path, perfbench):
    # Every command line the benchmark builds (it adds --format csv --out
    # PATH) parses; nothing is run.
    workloads = perfbench("workloads")
    parser, _ = _build_parser()
    out = str(tmp_path / "out.csv")
    argvs = [argv for build in workloads.WORKLOADS.values() for argv in build(7)]
    assert {argv[0] for argv in argvs} == set(_HEADERS)
    for argv in argvs:
        args = parser.parse_args([*argv, *out_flags("csv", out)])
        assert (args.command, args.format, args.out) == (argv[0], "csv", out)


_CONVEX = ["--family", "convex", "--alpha", "0.5", "--gamma", "1.4"]


@pytest.mark.parametrize("argv", [
    ["bounds", *_CONVEX],
    ["extremal", *_CONVEX],
    ["verify", *_CONVEX],
    ["verify", "--family", "ozaki", "--lambda", "0.3"],
    ["sweep", "--alphas", "0,0.5,3", "--gammas=-pi/3,pi/3,3"],
    ["sweep", "--family", "ozaki", "--lambdas", "0.1,1,4"],
    ["sample", *_CONVEX, "--samples", "200"],
], ids=" ".join)
def test_benchmark_oracle_accepts_rows(argv, tmp_path, perfbench):
    # The benchmark checks every csv row it gets with its oracle, which reads
    # columns no other test reads (sweep's error, sample's constructed and
    # failures).
    oracle = perfbench("oracle")
    code, rows = cli_rows(argv, tmp_path)
    assert code == 0
    res = oracle.CheckResult()
    oracle.CHECKERS[argv[0]](rows, res)
    assert res.failed_operations == 0, res.failures + res.known
    assert res.operations == len(rows)
