"""Command-line harness: schema, reproducibility, run-parameter checks, exit
codes, the README's command lines, and the built-in verification suite."""

import csv
import hashlib
import math
import pathlib
import shlex

import pytest

from biharm import cli


def _parse(text):
    rows = list(csv.reader(text.strip().splitlines()))
    assert rows[0] == cli._CSV_HEADER.split(",")
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_csv_schema_and_three_dim_accuracy(capsys):
    rc, out, _ = _run(capsys, ["--table", "4", "--orders", "4",
                               "--steps", "10", "20"])
    assert rc == 0
    rows = _parse(out)
    assert len(rows) == 2
    first, second = rows
    assert (first["n"], first["M"]) == ("3", "4")
    assert float(first["h"]) == 0.1
    assert float(first["exact"]) == pytest.approx(math.exp(-3.0), rel=1e-15)
    # frozen accuracy anchor, factor-2 window
    assert 1.2e-7 < float(first["abs_err"]) < 4.8e-7
    assert first["rate"] == ""
    assert float(second["rate"]) == pytest.approx(7.93, abs=0.15)
    for row in rows:
        want = float(row["abs_err"]) / float(row["exact"])
        assert float(row["rel_err"]) == pytest.approx(want, rel=1e-12)


def test_axis_benchmark_relative_errors(capsys):
    rc, out, _ = _run(capsys, ["--table", "1", "--dims", "5"])
    assert rc == 0
    rows = _parse(out)
    assert [float(r["x1"]) for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert all(float(r["h"]) == 0.025 and r["M"] == "4" for r in rows)
    assert 6.4e-11 < float(rows[0]["rel_err"]) < 2.6e-10


def test_axis_benchmark_refuses_schedule_override(capsys):
    rc, _, err = _run(capsys, ["--table", "1", "--dims", "5", "--steps", "20"])
    assert rc == 2
    assert "table 1" in err


def test_output_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        rc, _, _ = _run(capsys, ["--table", "4", "--orders", "2",
                                 "--steps", "10", "20", "--out", str(p)])
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("table, digest", [
    ("1", "4b3cd2d9c24724c8422ecbe3e8a61ca022df40da4053625dbff2173888250657"),
    ("2", "85e08c60b31812c2db382469297f61ad96bdf50f0dff0488e25895ad745b4132"),
    ("3", "e7df125c9689bfb647ea959b0a8f4dd178275143f27e8ef92d411dfdc3a3c779"),
    ("4", "eba3b9689cf50d66a45697dfc12e5266d1d378e727b2eba036bca68c8df6d85f"),
])
def test_table_bytes_are_frozen(capsys, table, digest):
    # the output contract: Tables 1-4 byte for byte, Table 4 the one that
    # runs the n = 3 tensor path.  The digests are those of the numpy 2.4.6
    # build the reference CSVs were made with; a different libm or SIMD exp
    # may change the last bits of a value
    rc, out, _ = _run(capsys, ["--table", table])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rate_column_recomputable(capsys):
    rc, out, _ = _run(capsys, ["--table", "custom", "--dims", "3",
                               "--orders", "1", "--steps", "10", "20", "40"])
    assert rc == 0
    rows = _parse(out)
    for prev, row in zip(rows, rows[1:]):
        want = math.log2(float(prev["abs_err"]) / float(row["abs_err"]))
        assert float(row["rate"]) == pytest.approx(want, abs=1e-12)


def test_short_quadrature_rule_is_a_config_error(capsys):
    # 150 of the 300 default nodes end while the node sums are still large;
    # the values would be ~100% wrong, so no CSV may be printed
    rc, out, err = _run(capsys, ["--table", "custom", "--dims", "5", "3",
                                 "--orders", "4", "--steps", "20",
                                 "--quad-nodes", "150"])
    assert rc == 2
    assert out == ""
    assert "final-node contribution" in err


def test_unsupported_dimension_is_a_config_error(capsys):
    rc, _, err = _run(capsys, ["--table", "custom", "--dims", "4",
                               "--orders", "1", "--steps", "10"])
    assert rc == 2
    assert "n = 4" in err


def test_floating_point_overflow_is_a_config_error(capsys):
    # a shape parameter this small overflows the node sums, this large the
    # prefactor; the run must end in an error line that names delta, not a
    # traceback or the bare overflow text
    for delta in ("1e-300", "1e300"):
        rc, out, err = _run(capsys, ["--table", "custom", "--dims", "5", "--orders", "2",
                                     "--steps", "10", "--delta", delta])
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and f"delta = {float(delta)}" in err


@pytest.mark.parametrize("flag, value", [
    ("--quad-tau", "inf"), ("--quad-b", "inf"), ("--quad-a", "1e308")])
def test_degenerate_quadrature_rule_is_a_config_error(capsys, flag, value):
    # these rules have no node inside the binary64 range: every kernel factor
    # reads 0, and the run printed approx = 0.0 with exit 0
    rc, out, err = _run(capsys, ["--table", "custom", "--dims", "5", "--orders", "2",
                                 "--steps", "10", flag, value])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: quadrature")


@pytest.mark.parametrize("field, value", [
    ("dims", (5.5,)), ("orders", (2.5,)), ("steps", (10.5,)), ("quad_nodes", 300.7)])
def test_run_config_refuses_fractional_counts(field, value):
    params = {"dims": (5,), "orders": (2,), "steps": (10,), field: value}
    with pytest.raises(ValueError, match="integer"):
        cli.RunConfig(**params)


def test_readme_command_lines_parse():
    # the README may advertise only flags the parser still accepts
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    fenced = readme.read_text().split("```")[1::2]
    lines = [line for block in fenced for line in block.splitlines()
             if line.startswith("biharm ")]
    assert lines
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_argparse_rejects_unknown_flag(capsys):
    for extra in (["--bogus"], ["--threads", "2"], ["--config", "run.json"],
                  ["--plot-out", "x.dat"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--table", "4", *extra])
        assert exc.value.code == 2
        capsys.readouterr()


def test_mode_flag_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_quick_passes(capsys):
    rc, out, _ = _run(capsys, ["--verify", "quick"])
    assert rc == 0
    lines = out.strip().splitlines()
    checks = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(checks) >= 12
    assert all(l.startswith("PASS") for l in checks)
    assert lines[-1].endswith(f"{len(checks)}/{len(checks)} checks passed")


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    def fake_checks(level):
        yield ("always-red", False, "forced failure for the exit-code path")

    monkeypatch.setattr(cli, "_verify_checks", fake_checks)
    rc, out, _ = _run(capsys, ["--verify", "quick"])
    assert rc == 1
    assert out.startswith("FAIL")
    assert "always-red" in out


def test_unwritable_output_is_reported(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    rc, _, err = _run(capsys, ["--table", "4", "--orders", "4",
                               "--steps", "10", "--out", str(target)])
    assert rc == 2
    assert "error" in err
