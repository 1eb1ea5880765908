"""Command-line harness: schema, reproducibility, plot data, config file
semantics, exit codes, and the built-in verification suite."""

import csv
import hashlib
import json
import math

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


def test_plot_data_blocks(tmp_path, capsys):
    plot = tmp_path / "series.dat"
    rc, _, _ = _run(capsys, ["--table", "custom", "--dims", "3",
                             "--orders", "1", "2", "--steps", "10", "20",
                             "--plot-out", str(plot)])
    assert rc == 0
    text = plot.read_text()
    blocks = text.strip("\n").split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        lines = block.splitlines()
        assert len(lines) == 2
        for line in lines:
            h, err = line.split()
            assert float(h) in (0.1, 0.05)
            assert float(err) > 0.0


def test_plot_data_single_series_has_no_blank_line(tmp_path, capsys):
    plot = tmp_path / "single.dat"
    rc, _, _ = _run(capsys, ["--table", "custom", "--dims", "3",
                             "--orders", "1", "--steps", "10", "20",
                             "--plot-out", str(plot)])
    assert rc == 0
    assert "\n\n" not in plot.read_text().strip("\n")


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


def test_argparse_rejects_unknown_flag(capsys):
    for extra in (["--bogus"], ["--threads", "2"]):
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


def test_empty_config_file_means_defaults(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("")
    args = ["--table", "4", "--orders", "4", "--steps", "10"]
    rc, plain, _ = _run(capsys, args)
    rc2, with_cfg, _ = _run(capsys, args + ["--config", str(cfg)])
    assert rc == rc2 == 0
    assert plain == with_cfg


def test_config_file_supplies_run_parameters(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dims": [3], "orders": [1], "steps": [10, 20]}))
    rc, out, _ = _run(capsys, ["--table", "custom", "--config", str(cfg)])
    assert rc == 0
    assert len(_parse(out)) == 2


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dims": [3], "orders": [1], "steps": [10]}))
    rc, out, _ = _run(capsys, ["--table", "custom", "--config", str(cfg),
                               "--steps", "20"])
    assert rc == 0
    rows = _parse(out)
    assert len(rows) == 1
    assert float(rows[0]["h"]) == 0.05


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    for key in ("bogus", "threads"):
        cfg.write_text(json.dumps({key: 1}))
        rc, _, err = _run(capsys, ["--table", "4", "--config", str(cfg)])
        assert rc == 2
        assert key in err


def test_config_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc, _, err = _run(capsys, ["--table", "4", "--config", str(cfg)])
    assert rc == 2
    assert "config error" in err


def test_unwritable_output_is_reported(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    rc, _, err = _run(capsys, ["--table", "4", "--orders", "4",
                               "--steps", "10", "--out", str(target)])
    assert rc == 2
    assert "error" in err
