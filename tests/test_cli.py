"""Command-line front end: outputs, determinism, exit codes."""

import math

import pytest

from vbesharp.cli import main


def _read_rows(path):
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return rows


class TestConstants:
    def test_half(self, capsys):
        assert main(["constants", "--p", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "1.3065629648763766" in out
        assert "1.1469808868156652" in out

    def test_quadratic_all_ones(self, capsys):
        assert main(["constants", "--p", "2.0"]) == 0
        out = capsys.readouterr().out
        lines = dict(l.split(None, 1) for l in out.strip().splitlines())
        for name in ("sharp_constant", "envelope", "vbe_constant",
                      "centering_constant"):
            assert float(lines[name]) == 1.0

    def test_rejects_exponent_one(self, capsys):
        assert main(["constants", "--p", "1.0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_clip_level_mode(self, capsys):
        assert main(["constants", "--t", "1.5"]) == 0
        out = dict(l.split(None, 1) for l in
                   capsys.readouterr().out.strip().splitlines())
        assert float(out["sharp_constant"]) == 2.0
        assert float(out["centering_constant"]) == 2.0
        assert main(["constants", "--t", "inf"]) == 0
        out = dict(l.split(None, 1) for l in
                   capsys.readouterr().out.strip().splitlines())
        assert float(out["sharp_constant"]) == 1.0

    def test_requires_exactly_one_parameter(self, capsys):
        assert main(["constants"]) == 2
        capsys.readouterr()
        assert main(["constants", "--p", "1.5", "--t", "2.0"]) == 2


class TestFigures:
    def test_fig4_quadratic_row(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "--name", "fig4", "--out", str(out)]) == 0
        rows = _read_rows(out)
        last = rows[-1]
        assert float(last["p"]) == 2.0
        for col in ("sharp_constant", "envelope", "vbe_capped", "one"):
            assert float(last[col]) == 1.0

    def test_fig2_ratios_below_one(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "--name", "fig2", "--out", str(out)]) == 0
        for row in _read_rows(out):
            for col in ("sharp_ratio", "lower1_ratio", "lower2_ratio",
                        "upper2_ratio"):
                assert 0.0 < float(row[col]) <= 1.0

    def test_fig1_right_oscillation(self, tmp_path):
        out = tmp_path / "f1r.csv"
        assert main(["figure", "--name", "fig1-right", "--out", str(out)]) == 0
        rows = [r for r in _read_rows(out) if 5.0 <= float(r["log2_logq_x1p"]) <= 8.0]
        vals = [float(r["effective_exponent"]) for r in rows]
        # local minima of the effective exponent sit near 3/2 in this range
        minima = [vals[i] for i in range(1, len(vals) - 1)
                  if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]]
        assert minima
        assert all(abs(v - 1.5) < 0.06 for v in minima)

    def test_fig1_left_columns(self, tmp_path):
        out = tmp_path / "f1l.csv"
        assert main(["figure", "--name", "fig1-left", "--to", "5.0",
                     "--out", str(out)]) == 0
        rows = _read_rows(out)
        r = rows[10]
        x = float(r["x"])
        assert float(r["decay_23"]) == pytest.approx((x + 1) ** (-2 / 3), rel=1e-12)
        # the step curvature is sandwiched between the two decay profiles
        assert float(r["decay_13"]) >= float(r["curvature"]) >= float(r["decay_23"]) \
            or math.isclose(float(r["curvature"]), (x + 1) ** (-2 / 3))

    def test_unknown_name(self, capsys):
        assert main(["figure", "--name", "fig9"]) == 2


class TestTable:
    def test_default_grid(self, tmp_path):
        out = tmp_path / "tab.csv"
        assert main(["table", "--out", str(out)]) == 0
        rows = _read_rows(out)
        assert len(rows) == 100  # 1.01 .. 2.00 by 0.01
        assert float(rows[-1]["p"]) == 2.0
        assert rows[-1]["gap_argmax"] == "nan"
        sharp = [float(r["sharp"]) for r in rows]
        assert all(b < a for a, b in zip(sharp, sharp[1:]))
        # the classical constant is infinite where its comparison factor
        # reaches 1
        assert any(r["vbe_constant"] == "inf" for r in rows)

    def test_exact_quadratic_row(self, tmp_path):
        out = tmp_path / "tab.csv"
        main(["table", "--out", str(out)])
        last = _read_rows(out)[-1]
        assert float(last["sharp"]) == 1.0 and float(last["centering"]) == 1.0


class TestVerify:
    def test_smoke_all(self, tmp_path, capsys):
        out = tmp_path / "ver.csv"
        assert main(["verify", "--suite", "all", "--samples", "16",
                     "--seed", "5", "--out", str(out)]) == 0
        assert out.exists()
        text = out.read_text()
        assert text.startswith("# vbesharp")
        assert "# seed=5" in text

    def test_single_suite_exit_zero(self):
        assert main(["verify", "--suite", "delta", "--samples", "256",
                     "--seed", "3"]) == 0

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "--suite", "nope"]) == 2

    @pytest.mark.parametrize("suite", ["oracle", "delta"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_must_be_positive(self, suite, samples, capsys):
        assert main(["verify", "--suite", suite, "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["verify", "--suite", "oracle", "--samples", "24",
                         "--seed", "11", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_headers_record_config(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["table", "--from", "1.3", "--to", "1.5", "--step", "0.1",
              "--seed", "77", "--out", str(out)])
        head = out.read_text().splitlines()[:3]
        assert head[0] == "# vbesharp 0.1.0"
        assert head[1] == "# seed=77"
        assert "subcommand=table" in head[2]


class TestEnvironment:
    def test_default_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VBESHARP_OUT_DIR", str(tmp_path))
        assert main(["figure", "--name", "fig3", "--step", "0.1"]) == 0
        assert (tmp_path / "fig3.csv").exists()
