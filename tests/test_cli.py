"""Command-line interface: outputs, configs, determinism, exit codes."""

from __future__ import annotations

import json
import math

import pytest

from sgbounds import PiecewiseLogAffineBound
from sgbounds.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "t,value,label"
    rows = []
    for line in lines[1:]:
        t, v, label = line.split(",")
        rows.append((float(t), float(v), label))
    return rows


CONFIG_53 = {
    "model": {"tabulated": {"pairs": [[-1.0, 0.05], [0.0, 1.0]]}},
    "initial_bound": "one",
    "omega_set": [0.0, -1.0],
    "update": {"order": [0.0, -1.0]},
    "grid": {"h": 1.0, "T": 60.0},
}


class TestWei:
    def test_reference_rate(self, capsys):
        code, out, _ = run(capsys, ["wei", "1.0", "--t-max", "4", "--step", "0.5"])
        assert code == 0
        rows = parse_csv(out)
        by_t = {t: v for t, v, _ in rows}
        assert by_t[1.0] == 0.0
        assert by_t[4.0] == pytest.approx(math.pi / 2 - 4.0, abs=1e-12)

    def test_matches_shift_model_form(self, capsys):
        # rate pi/2: the curve is exp(pi/2 (1 - t)) past the kink
        code, out, _ = run(capsys, ["wei", str(math.pi / 2), "--t-max", "3", "--step", "0.25"])
        assert code == 0
        for t, v, _ in parse_csv(out):
            expected = min(0.0, math.pi / 2 * (1.0 - t))
            assert v == pytest.approx(expected, abs=1e-12)

    def test_rejects_nonpositive_rate(self, capsys):
        code, _, err = run(capsys, ["wei", "-1.0"])
        assert code == 2
        assert "config error" in err


class TestUpdate:
    def test_worked_example_numbers(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG_53))
        code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        singles = {s["omega"]: s for s in report["singles"]}
        assert singles[-1.0]["first_crossing"] == pytest.approx(1.8464, abs=5e-4)
        assert singles[0.0]["first_crossing"] == pytest.approx(math.pi / 4, abs=1e-12)
        chain = report["chain"]
        assert chain[1]["first_crossing"] == pytest.approx(7.0741, abs=5e-4)
        final = PiecewiseLogAffineBound.from_json_dict(chain[-1]["bound"])
        assert final.slopes[-1] == -1.05
        assert final.intercepts[-1] == pytest.approx(3.8490, abs=5e-4)

    def test_identity_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"tabulated": {"pairs": [[1.0, 0.5]]}},
                    "initial_bound": "one",
                    "omega_set": [1.0],
                    "grid": {"h": 1.0, "T": 5.0},
                }
            )
        )
        code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        bound = PiecewiseLogAffineBound.from_json_dict(report["min_update"])
        assert bound == PiecewiseLogAffineBound.constant()

    def test_gp_mode_matches_closed_form(self, capsys, tmp_path):
        big_m, w0, omega, rate = 2.0, 0.5, -1.0, 0.25
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"tabulated": {"pairs": [[omega, rate]]}},
                    "initial_bound": {
                        "breakpoints": [0.0],
                        "slopes": [w0],
                        "intercepts": [math.log(big_m)],
                    },
                    "omega_set": [omega],
                    "grid": {"h": 1.0, "T": 4.0},
                    "gp": {"omega": omega, "times": [4.0, 8.0], "split": 0.5},
                }
            )
        )
        code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        for row in report["gp"]["rows"]:
            t = row["t"]
            expected = math.log(
                2.0
                * big_m**2
                * (w0 - omega)
                * math.exp(omega * t)
                / (rate * (1.0 - math.exp((omega - w0) * t)))
            )
            assert row["log_bound"] == pytest.approx(expected, abs=1e-10)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG_53, "typo": 1}))
        code, _, err = run(capsys, ["update", "--config", str(cfg)])
        assert code == 2
        assert "unknown keys" in err

    def test_writes_both_formats(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG_53))
        out_base = tmp_path / "result"
        code, _, _ = run(capsys, ["update", "--config", str(cfg), "--out", str(out_base)])
        assert code == 0
        assert (tmp_path / "result.json").exists()
        assert (tmp_path / "result.csv").exists()
        text = (tmp_path / "result.csv").read_text()
        assert text.startswith("t,value,label")


class TestIterate:
    def test_trace_structure_and_stationarity(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"tabulated": {"pairs": [[0.0, 1.0]]}},
                    "initial_bound": "one",
                    "omega_set": [0.0],
                    "grid": {"h": 0.25, "T": 20.0},
                    "iteration": {"max_steps": 4, "use_semigroupize": True},
                }
            )
        )
        code, out, _ = run(capsys, ["iterate", "--config", str(cfg), "--format", "json"])
        assert code == 0
        trace = json.loads(out)
        assert trace["stationary_at"] == 1
        bound = PiecewiseLogAffineBound.from_json_dict(trace["steps"][1]["bound"])
        assert bound.breakpoints[-1] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_deterministic_output(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG_53, "iteration": {"max_steps": 3}}))
        _, first, _ = run(capsys, ["iterate", "--config", str(cfg), "--format", "csv"])
        _, second, _ = run(capsys, ["iterate", "--config", str(cfg), "--format", "csv"])
        assert first == second

    @pytest.mark.parametrize(
        "config",
        [
            {"model": {"tabulated": {"path": "/nonexistent.json"}}},
            {"model": {"jordan": {}}},
            {"grid": {"h": 0.1}},
            {"omega_set": {"from": 0, "to": 1}},
        ],
        ids=["missing_path", "jordan_without_n", "grid_without_T", "omega_set_without_count"],
    )
    def test_malformed_config_exits_2(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(capsys, ["iterate", "--config", str(cfg)])
        assert code == 2
        assert "config error" in err


@pytest.mark.parametrize(
    "override",
    [
        {"omega_set": [None]},
        {"initial_bound": {"exp": None}},
        {"initial_bound": {"breakpoints": [0.0], "slopes": [0.0], "intercepts": [None]}},
        {"model": {"tabulated": {"pairs": 5}}},
        {"update": {"order": 5}},
        {"gp": {"omega": 0, "times": 5}},
        {"update": []},
    ],
    ids=["omega_null", "exp_null", "intercept_null", "pairs_number", "order_number", "gp_times_number", "update_list"],
)
def test_wrongly_typed_config_exits_2(capsys, tmp_path, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"tabulated": {"pairs": [[0.0, 1.0]]}}, "omega_set": [0.0], **override}))
    code, _, err = run(capsys, ["update", "--config", str(cfg)])
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "argv",
    [["wei", "1", "--step", "0"], ["figure", "omegar", "--omega-step", "0"], ["figure", "diffop_r", "--omega-step", "0"]],
    ids=["wei", "omegar", "diffop_r"],
)
def test_zero_step_exits_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "config error" in err


class TestFigure:
    def test_diffop_rate_reference_point(self, capsys):
        code, out, _ = run(
            capsys,
            ["figure", "diffop_r", "--omega-min", "0", "--omega-max", "1", "--omega-step", "0.5"],
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(math.pi / 2, abs=1e-10)

    def test_omegar_reference_point(self, capsys):
        code, out, _ = run(
            capsys,
            ["figure", "omegar", "--omega-min", "0", "--omega-max", "1", "--omega-step", "1"],
        )
        assert code == 0
        rows = parse_csv(out)
        matched = [v for t, v, label in rows if label == "matched_rate_pi_4" and t == 0.0]
        assert matched[0] == pytest.approx(1.0, abs=1e-10)
        thresholds = {label: t for t, _, label in rows if label.startswith("threshold")}
        assert -1.0 < thresholds["threshold_lower"] < 0.0
        assert thresholds["threshold_upper"] > 1.0

    def test_jordan3_curves(self, capsys):
        code, out, _ = run(capsys, ["figure", "jordan3", "--t-max", "20", "--step", "0.1"])
        assert code == 0
        rows = parse_csv(out)
        labels = {label for _, _, label in rows}
        assert labels == {"true_norm", "numerical_range", "bound_3_omegas", "bound_101_omegas"}
        at_zero = {label: v for t, v, label in rows if t == 0.0}
        assert all(v >= 0.0 for v in at_zero.values())  # every curve starts at log 1 or above
        by_label = {label: {t: v for t, v, l2 in rows if l2 == label} for label in labels}
        for t in (5.0, 10.0, 20.0):
            assert (
                by_label["true_norm"][t]
                <= by_label["bound_101_omegas"][t] + 1e-9
                <= by_label["bound_3_omegas"][t] + 2e-9
                <= by_label["numerical_range"][t] + 3e-9
            )

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):  # argparse refuses the choice
            main(["figure", "nope"])


class TestProfileCommand:
    def test_diffop_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            ["profile", "--model", "diffop", "--omega-min", "-1", "--omega-max", "0", "--count", "3"],
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-10)
        assert rows[-1][1] == pytest.approx(math.pi / 2, abs=1e-10)

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        from sgbounds import models
        from sgbounds.models import ConvergenceError

        def boom(_):
            raise ConvergenceError("forced")

        monkeypatch.setattr(models, "diffop_rate", boom)
        code, _, err = run(capsys, ["profile", "--model", "diffop", "--count", "2"])
        assert code == 3
        assert "numeric failure" in err
