"""Command-line interface: outputs, configs, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain_profile, random_bound, random_log_concave_bound, update_tails
from sgbounds import (
    GridBound,
    OmegaRPair,
    PiecewiseLogAffineBound,
    ResolventProfile,
    first_crossing_time,
    gp_log_bound,
    iterate,
    min_update,
    update_bound,
)
from sgbounds import cli, iteration
from sgbounds.cli import main
from sgbounds.envelope import _closure, _log_values
from sgbounds.models import diffop_rate


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

    def test_gp_rate_is_the_set_rate(self, capsys, tmp_path):
        # an abscissa where two rate paths of the diffop model would differ by
        # 1 ulp; one report must give one abscissa one rate
        omega = -4.664144246945357
        cfg = tmp_path / "cfg.json"
        config = {**CONFIG_53, "model": "diffop", "omega_set": [omega], "update": {}}
        cfg.write_text(json.dumps({**config, "gp": {"omega": omega, "times": [4.0]}}))
        code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["gp"]["rate"] == report["singles"][0]["rate"] == 0.08800590541983289

    def test_gp_windows_that_round_above_t_are_shortened(self, capsys, tmp_path):
        # 0.3 t + (t - 0.3 t) rounds one ulp above this t, which gp_log_bound rejects
        t, pair = 26.57154376388876, OmegaRPair(0.0, 1.0)
        a, b = 0.3 * t, t - 0.3 * t
        assert a + b > t
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG_53, "gp": {"omega": 0.0, "times": [4.0, t], "split": 0.3}}))
        code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
        assert code == 0
        rows = json.loads(out)["gp"]["rows"]
        assert rows[1]["log_bound"] == gp_log_bound(PiecewiseLogAffineBound.constant(), pair, a, math.nextafter(b, 0.0), t)

    def test_gp_at_a_huge_abscissa_is_never_nan(self, capsys, tmp_path):
        # the README's tabulated model at omega = 1e308: omega t and the norms'
        # 2 omega a cancel before they are formed, so the rows are log(2 omega)
        config = {
            "model": {"tabulated": {"pairs": [[-1.0, 0.05], [0.0, 1.0]]}},
            "initial_bound": "one",
            "omega_set": [0.0, -1.0],
            "gp": {"omega": 1e308, "times": [2.0, 4.0]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
        assert code == 0 and "NaN" not in out
        rows = json.loads(out)["gp"]["rows"]
        assert [row["log_bound"] for row in rows] == pytest.approx([math.log(2.0) + math.log(1e308)] * 2, rel=1e-12)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG_53, "typo": 1}))
        code, _, err = run(capsys, ["update", "--config", str(cfg)])
        assert code == 2
        assert "unknown keys" in err

    def test_report_matches_the_library(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        for k in range(6):
            profile, lo, hi = chain_profile(rng, 60)
            m0 = random_bound(rng, 6) if k % 2 else random_log_concave_bound(rng, 6)
            distinct = rng.uniform(lo, hi, size=12).tolist()
            omegas = distinct + distinct[::3]
            order = distinct[::2] + distinct[1:4] + [hi + 0.5] + distinct[:2]
            cfg = tmp_path / "cfg.json"
            cfg.write_text(
                json.dumps(
                    {
                        "model": {"tabulated": {"pairs": [list(p) for p in profile.table]}},
                        "initial_bound": m0.to_json_dict(),
                        "omega_set": omegas,
                        "update": {"order": order},
                    }
                )
            )
            code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
            assert code == 0
            report = json.loads(out)
            m0 = _closure(m0, 0.1 * 200)  # the default grid's horizon
            assert [s["omega"] for s in report["singles"]] == sorted(distinct)
            for single in report["singles"]:
                pair = profile.pairs([single["omega"]])[0]
                assert single["rate"] == profile.rate(single["omega"])
                assert single["first_crossing"] == first_crossing_time(m0, pair)
                assert single["bound"] == update_bound(m0, pair).to_json_dict()
            cur = m0
            assert [s["omega"] for s in report["chain"]] == order
            for step in report["chain"]:
                pair = profile.pairs([step["omega"]])[0]
                assert step["rate"] == pair.rate
                assert step["first_crossing"] == first_crossing_time(cur, pair)
                cur = update_bound(cur, pair)
                assert step["bound"] == cur.to_json_dict()
            assert report["min_update"] == min_update(m0, update_tails(m0, omegas, profile)).to_json_dict()

    def test_start_that_is_not_subadditive_is_closed_before_its_rows(self, capsys, tmp_path):
        # log m0 is 0 up to 0.6, then rises to 1.2 and falls: m0(1) > m0(0.5)^2, so
        # the tail through 2 log m0(c) at twice the crossing c = 0.5 starts below m0
        # and update_bound keeps m0; the tail line meets m0 again at its fall, where
        # a splice postponed to that re-entry took it.  The row comes from the closed
        # start, which is 0 up to 1.44, so its tail starts on it at t = 1
        m0 = PiecewiseLogAffineBound.from_slopes([0.0, 2.0, -5.0], [0.6, 1.2])
        pair = ResolventProfile(fn=diffop_rate).pairs([0.0])[0]
        crossing = first_crossing_time(m0, pair)
        assert update_bound(m0, pair) is m0
        cfg = tmp_path / "cfg.json"
        grid = {"h": 0.1, "T": 6.0}
        cfg.write_text(json.dumps({"initial_bound": m0.to_json_dict(), "omega_set": [0.0], "grid": grid}))
        code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
        assert code == 0
        row = PiecewiseLogAffineBound.from_json_dict(json.loads(out)["singles"][0]["bound"])
        slope = pair.omega - pair.rate
        reentry = (m0.intercepts[2] + slope * 2.0 * crossing) / (slope - m0.slopes[2])
        ts = np.linspace(0.0, 6.0, 6001)
        gaps = [row.log_at(t) - m0.log_at(t) for t in ts]
        assert max(gaps) <= 1e-12 and min(gaps) < -1.0
        postponed = [m0.log_at(t) if t < reentry else min(m0.log_at(t), slope * (t - 2.0 * crossing)) for t in ts]
        assert all(row.log_at(t) <= p + 1e-12 for t, p in zip(ts, postponed))
        assert row.log_at(1.3) < m0.log_at(1.3) - 1.0 and 1.3 < reentry

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

    def test_json_report_is_one_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG_53, "iteration": {"max_steps": 2.0}}))
        code, out, _ = run(capsys, ["iterate", "--config", str(cfg), "--format", "json"])
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        assert 2 <= len(json.loads(out)["steps"]) <= 3

    def test_non_concave_start_without_envelope(self, capsys, tmp_path):
        # the shift with a valid start that is not log-concave, h = 0.15 not dividing 1
        m0 = PiecewiseLogAffineBound((0.0, 0.3, 0.45), (0.0, 1.0, 0.0), (0.0, -0.3, 0.15))
        h, n = 0.15, 40
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "diffop",
                    "initial_bound": m0.to_json_dict(),
                    "omega_set": [-40.0, 0.0],
                    "grid": {"h": h, "T": 6.0},
                    "iteration": {"max_steps": 3, "use_semigroupize": False},
                }
            )
        )
        code, out, _ = run(capsys, ["iterate", "--config", str(cfg), "--format", "json"])
        assert code == 0
        for step in json.loads(out)["steps"]:
            bound = PiecewiseLogAffineBound.from_json_dict(step["bound"])
            assert GridBound(step["grid"]["h"], tuple(step["grid"]["values"])) == GridBound.sample(bound, h, n)
            lowest = min(bound.log_at(k * 1e-3) for k in range(1000))
            assert lowest >= 0.0, f"step {step['index']}: log m reaches {lowest:.3g} on [0, 1)"

    @pytest.mark.parametrize(
        "config",
        [
            {"model": {"tabulated": {"path": "/nonexistent.json"}}},
            {"model": {"jordan": {}}},
            {"grid": {"h": 0.1}},
            {"omega_set": {"from": 0, "to": 1}},
            {"model": {"tabulated": {"pairs": [[0.0, 0.1], [math.nan, 100.0]]}}, "omega_set": [0.5]},
            {**CONFIG_53, "output": {"dir": "results"}},
            {**CONFIG_53, "iteration": {"use_semigroupize": "false"}},
            {**CONFIG_53, "iteration": {"use_semigroupize": 0}},
            {**CONFIG_53, "iteration": {"max_steps": 2.7}},
            {**CONFIG_53, "iteration": {"max_steps": True}},
            {**CONFIG_53, "iteration": {"max_steps": "3"}},
        ],
        ids=[
            "missing_path",
            "jordan_without_n",
            "grid_without_T",
            "omega_set_without_count",
            "non_finite_pair",
            "output_key",
            "use_semigroupize_string",
            "use_semigroupize_number",
            "max_steps_fraction",
            "max_steps_bool",
            "max_steps_string",
        ],
    )
    def test_malformed_config_exits_2(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(capsys, ["iterate", "--config", str(cfg)])
        assert code == 2
        assert "config error" in err

    def test_tabulated_path_not_json_names_the_key(self, capsys, tmp_path):
        table = tmp_path / "pairs.txt"
        table.write_text("0.0 1.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"tabulated": {"path": str(table)}}, "omega_set": [0.0]}))
        code, _, err = run(capsys, ["update", "--config", str(cfg)])
        assert code == 2
        assert "config error: cannot read model.tabulated.path: " in err


@pytest.mark.parametrize(
    "override",
    [
        {"omega_set": [None]},
        {"initial_bound": {"exp": None}},
        {"initial_bound": {"breakpoints": [0.0], "slopes": [0.0], "intercepts": [None]}},
        {"model": {"tabulated": {"pairs": 5}}},
        {"update": {"order": 5}},
        {"gp": {"omega": 0, "times": 5}},
        {"gp": {"omega": 0, "times": [4.0], "split": math.nan}},
        {"gp": {"omega": 0, "times": [math.inf]}},
        {"update": []},
        {"omega_set": {"from": -1, "to": 0, "count": 2, "log_spaced": "no"}},
        {"omega_set": {"from": 0, "to": 1, "count": 2.5}},
        {"omega_set": {"from": 0, "to": 1, "count": True}},
        {"omega_set": {"from": 0, "to": 1, "count": "2"}},
        {"model": {"jordan": {"n": 2.5}}, "omega_set": [1.0]},
        {"model": {"jordan": {"n": True}}, "omega_set": [1.0]},
        {"model": {"jordan": {"n": "3"}}, "omega_set": [1.0]},
    ],
    ids=[
        "omega_null", "exp_null", "intercept_null", "pairs_number", "order_number", "gp_times_number",
        "gp_split_nan", "gp_times_inf", "update_list", "log_spaced_string", "count_fraction", "count_bool",
        "count_string", "jordan_n_fraction", "jordan_n_bool", "jordan_n_string",
    ],
)
def test_wrongly_typed_config_exits_2(capsys, tmp_path, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"tabulated": {"pairs": [[0.0, 1.0]]}}, "omega_set": [0.0], **override}))
    code, _, err = run(capsys, ["update", "--config", str(cfg)])
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["wei", "1", "--step", "0"],
        ["figure", "omegar", "--omega-step", "0"],
        ["figure", "diffop_r", "--omega-step", "0"],
        ["wei", "1", "--step", "inf"],
        ["figure", "jordan3", "--step", "inf"],
        ["figure", "omegar", "--omega-step", "inf"],
        ["figure", "diffop_r", "--omega-step", "inf"],
    ],
    ids=["wei", "omegar", "diffop_r", "wei_inf", "jordan3_inf", "omegar_inf", "diffop_r_inf"],
)
def test_zero_step_exits_2(capsys, argv):
    # an infinite step would make the grid's k * step NaN at k = 0
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "config error" in err and f"got {float(argv[-1])!r}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["wei", "1", "--t-max", "-1"],
        ["figure", "jordan3", "--t-max", "-1"],
        ["figure", "diffop_r", "--omega-min", "5", "--omega-max", "-5"],
        ["figure", "omegar", "--omega-min", "5", "--omega-max", "-5"],
        ["profile", "--count", "0"],
        ["profile", "--count", "-3"],
    ],
    ids=["wei", "jordan3", "diffop_r", "omegar", "profile_count_0", "profile_count_negative"],
)
def test_empty_sweep_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "config error" in err


BIG = 10**400  # a 401-digit JSON integer, beyond the largest float


@pytest.mark.parametrize(
    "command, override",
    [
        (command, override)
        for command in ("update", "iterate")
        for override in (
            {"grid": {"h": 1.0, "T": BIG}},
            {"omega_set": [0.0, BIG]},
            {"model": {"tabulated": {"pairs": [[-1.0, 0.05], [0.0, BIG]]}}},
            {"initial_bound": {"exp": BIG}},
            {"initial_bound": {"breakpoints": [0.0, BIG], "slopes": [0.0, -1.0], "intercepts": [0.0, 0.0]}},
        )
    ]
    + [("update", {"gp": {"omega": 0.0, "times": [BIG]}})],
    ids=[
        f"{command}_{key}"
        for command in ("update", "iterate")
        for key in ("grid_T", "omega_set", "tabulated_pair", "exp", "breakpoints")
    ]
    + ["update_gp_times"],
)
def test_number_too_large_for_a_float_exits_2(capsys, tmp_path, command, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_53, **override}))
    code, _, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 2
    assert "config error" in err
    assert "Traceback" not in err


def test_initial_bound_that_overflows_at_a_breakpoint_exits_2(capsys, tmp_path):
    # each piece is finite on its own, but 1e10 * 1e300 is not
    bound = {"breakpoints": [0, 1e300], "slopes": [1e10, -1e10], "intercepts": [0, 0]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_53, "initial_bound": bound}))
    code, out, err = run(capsys, ["update", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "config error: bad initial_bound: bound data must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["wei", "1", "--t-max", "inf"], None),
        (["iterate"], {"grid": {"h": 1e-300, "T": 1e300}}),
        (["iterate"], {"omega_set": {"from": 0, "to": 1000, "count": 3, "log_spaced": True}}),
    ],
    ids=["wei_t_max_inf", "grid_step_count_overflows", "log_spaced_omegas_overflow"],
)
def test_non_finite_size_exits_2(capsys, tmp_path, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG_53, **config}))
        argv = [*argv, "--config", str(cfg)]
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

    def test_sweep_points_equal_the_scalar_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = (float(x) for x in rng.uniform(-1e3, 1e3, 2) * 10.0 ** rng.integers(-8, 8, 2))
            count = int(rng.integers(1, 500))
            loop = [a + (b - a) * k / (count - 1) if count > 1 else a for k in range(count)]
            assert cli._linspace(a, b, count) == loop


@pytest.mark.parametrize("command", ["update", "iterate"])
def test_slope_overflow_exits_3(capsys, tmp_path, command):
    # a slope of 1e155 drives |mu| past the ~1.34e154 where mu * mu overflows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial_bound": {"exp": 1e155}, "omega_set": [0.0]}))
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 3 and out == ""
    assert "numeric failure: crossing time overflows at slope 1e+155, omega = 0.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["update", "iterate"])
def test_tail_at_zero_that_leaves_the_bound_unnormalized_exits_3(capsys, tmp_path, command):
    # a slope of 1.3e154 crosses at 1.37e-152: the tail starts within 1e-12 of
    # t = 0, where its log is 355.1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial_bound": {"exp": 1.3e154}, "omega_set": [0.0]}))
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 3 and out == ""
    assert "numeric failure: update tail for omega = 0.0 starts at t = 2.73155e-152" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config, omega",
    [
        (["profile", "--omega-min", "-800", "--omega-max", "-700", "--count", "2"], None, "-800.0"),
        (["iterate", "--config"], {**CONFIG_53, "model": "diffop", "omega_set": [-400.0, 0.0]}, "-400.0"),
        (["iterate", "--config"], {**CONFIG_53, "model": "diffop", "omega_set": [-5.0, -400.0, 0.0]}, "-400.0"),
    ],
    ids=["profile", "iterate", "iterate_set"],
)
def test_rate_overflow_exits_3(capsys, tmp_path, argv, config, omega):
    # the shift model's rate evaluates expm1(2 eta), which overflows below omega = -354.9
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, str(cfg)]
    code, _, err = run(capsys, argv)
    assert code == 3
    assert "numeric failure" in err
    assert "diffop" in err and f"omega = {omega}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config, omega",
    [
        (["profile", "--model", "jordan", "--omega-min", "nan", "--count", "2"], None, "nan"),
        (["profile", "--model", "jordan", "--omega-min", "inf", "--omega-max", "inf", "--count", "1"], None, "inf"),
        (["iterate", "--config"], {**CONFIG_53, "model": {"jordan": {"n": 3}}, "omega_set": [math.nan, 1.0]}, "nan"),
    ],
    ids=["profile_nan", "profile_inf", "iterate_nan"],
)
def test_non_finite_jordan_omega_exits_2(capsys, tmp_path, argv, config, omega):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, str(cfg)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "config error" in err and omega in err
    assert "SVD" not in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["profile", "--omega-min", "1e300", "--omega-max", "1e308", "--count", "3"], None),
        (["profile", "--model", "jordan", "--omega-min=-1e308", "--omega-max", "1e308", "--count", "101"], None),
        (["iterate", "--config"], {**CONFIG_53, "omega_set": {"from": 1e300, "to": 1e308, "count": 3}}),
    ],
    ids=["profile", "profile_jordan", "omega_set"],
)
def test_omega_grid_past_the_float_range_exits_2(capsys, tmp_path, argv, config):
    # b - a or its multiples overflow: the grid is refused before any model
    # sees it, naming both ends and the count, with no numpy warning
    a, b, count = (1e300, 1e308, 3) if "jordan" not in argv else (-1e308, 1e308, 101)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, str(cfg)]
    code, _, err = run(capsys, argv)
    assert code == 2 and "config error" in err
    assert f"from {a!r} to {b!r} with count {count}" in err
    assert "Warning" not in err and "Traceback" not in err
    # a grid that stays finite keeps its values bit for bit, even near the limit
    assert cli._linspace(-1e307, 1e307, 7) == [-1e307 + 2e307 * k / 6 for k in range(7)]


# The child caps its address space before it runs the command, so a grid
# that would fill memory fails there, and a hang ends at the timeout.
_CAPPED_MAIN = """
import resource, sys
from sgbounds.cli import main
cap = 1 << 31
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
raise SystemExit(main(sys.argv[1:]))
"""


def run_capped(tmp_path, argv, config):
    """Run the CLI in a child capped by ``_CAPPED_MAIN``, in tmp_path."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *argv],
        capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
    )


@pytest.mark.parametrize(
    "argv, config",
    [
        (["iterate"], {**CONFIG_53, "grid": {"h": 1e-12, "T": 100.0}}),
        (["update", "--format", "csv"], {**CONFIG_53, "grid": {"h": 1e-12, "T": 100.0}}),
        (["figure", "jordan3", "--step", "1e-300"], None),
        (["update", "--out", "X"], {**CONFIG_53, "grid": {"h": 1e-12, "T": 100.0}}),
    ],
    ids=["iterate_grid", "update_csv_grid", "jordan3_step", "update_out_grid"],
)
def test_grid_too_large_to_allocate_exits_2(tmp_path, argv, config):
    proc = run_capped(tmp_path, argv, config)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    # a run that fails writes no file, not even the report it could build
    assert not (tmp_path / "X.json").exists()


GRID_2_63 = {**CONFIG_53, "grid": {"h": 1.0, "T": 9.223372036854775808e18}}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["wei", "1", "--t-max", "9.223372036854775808e18", "--step", "1"], None),
        (["figure", "diffop_r", "--omega-min", "0", "--omega-max", "9.223372036854775808e18", "--omega-step", "1"], None),
        (["iterate"], GRID_2_63),
        (["update", "--format", "csv"], GRID_2_63),
        (["profile", "--count", str(2**63 - 1)], None),
        (["profile", "--count", str(10**400)], None),
    ],
    ids=["wei_span", "diffop_r_span", "iterate_grid", "update_csv_grid", "profile_count", "profile_count_401_digits"],
)
def test_count_numpy_cannot_hold_exits_2(tmp_path, argv, config):
    # np.arange returns an empty array for counts near 2^63: each must be refused
    # as a count, not end in an empty output or in filling memory
    proc = run_capped(tmp_path, argv, config)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "out of memory" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, target",
    [(["wei", "1.0"], "missing/x"), (["profile", "--count", "3"], ".")],
    ids=["missing_directory", "directory"],
)
def test_unwritable_out_exits_2(capsys, tmp_path, argv, target):
    out = tmp_path / target
    code, _, err = run(capsys, [*argv, "--out", str(out)])
    assert code == 2
    assert f"config error: cannot write {out}" in err


def test_every_set_update_goes_through_min_update(capsys, tmp_path, monkeypatch):
    # the traced benchmark wraps the module attribute sgbounds.iteration.min_update
    # in every sgbounds namespace that holds it; the sweep behind a set update
    # must run only inside that wrapper
    calls = {"min_update": 0, "sweep": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    wrapped = counting("min_update", iteration.min_update)
    monkeypatch.setattr(iteration, "min_update", wrapped)
    monkeypatch.setattr(cli, "min_update", wrapped)
    monkeypatch.setattr(iteration, "min_with_tails", counting("sweep", iteration.min_with_tails))
    assert not hasattr(cli, "min_with_tails")

    profile = iteration.ResolventProfile.tabulated([(-1.0, 0.05), (0.0, 1.0)])
    trace = iterate(PiecewiseLogAffineBound.constant(), [0.0, -1.0], profile, 4, (0.25, 80))
    assert calls == {"min_update": len(trace.steps) - 1, "sweep": len(trace.steps) - 1}

    calls.update(min_update=0, sweep=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_53, "omega_set": [0.0, -1.0, -0.5], "update": {"order": [0.0, -1.0, 0.0]}}))
    code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert len(report["singles"]) == 3 and len(report["chain"]) == 3
    assert calls == {"min_update": 3 + 3 + 1, "sweep": 3 + 3 + 1}


@pytest.mark.parametrize(
    "config, check",
    [
        (
            {**CONFIG_53, "model": {"tabulated": {"pairs": [[1.0, 0.5]]}}, "omega_set": [1.0], "update": {}},
            lambda out, report: '"first_crossing": Infinity' in out,
        ),
        (
            {**CONFIG_53, "update": {"order": [0.0, -1.0, 0.0, 0.0]}},
            lambda out, report: report["chain"][-1]["bound"] == report["chain"][-2]["bound"],
        ),
        (
            {
                "model": {"tabulated": {"pairs": [[-1.0, 0.25]]}},
                "initial_bound": {"breakpoints": [0.0], "slopes": [0.5], "intercepts": [0.7]},
                "omega_set": [-1.0],
                "gp": {"omega": -1.0, "times": [4.0, 8.0]},
            },
            lambda out, report: list(report) == ["gp"],
        ),
        (
            {
                **CONFIG_53,
                "model": {"tabulated": {"pairs": [[-1.0, 0.05], [0.0, 1.0], [2.0, 1.5]]}},
                "initial_bound": {"breakpoints": [0.0, 1.0], "slopes": [-0.0, -1.0], "intercepts": [-0.0, 1.0]},
                "omega_set": [0.0, -1.0, 2.0],
                "update": {},
            },
            lambda out, report: '"slopes": [-0.0, -1.0], "intercepts": [-0.0, 1.0]' in out,
        ),
        (
            # the float texts are made once per value, but 0.0 and -0.0 are one
            # value with two texts; the read-back comparison alone cannot see a
            # lost sign, so the first chain row's omega is checked for it
            {**CONFIG_53, "omega_set": [0.0, -1.0], "update": {"order": [-0.0, 0.0, -1.0]}},
            lambda out, report: '"omega": -0.0' in out
            and '"omega": 0.0' in out
            and math.copysign(1.0, report["chain"][0]["omega"]) == -1.0,
        ),
    ],
    ids=["never_crosses", "repeated_abscissa", "gp_only", "negative_zero", "signed_zero_omegas"],
)
def test_update_report_text_is_json_dumps(capsys, tmp_path, config, check):
    # the report is joined from one text per bound object; it must be the text
    # json.dumps gives for the report it reads back as, on stdout and in --out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["update", "--config", str(cfg), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report) + "\n"
    assert check(out, report)
    code, csv, _ = run(capsys, ["update", "--config", str(cfg), "--format", "csv"])
    assert code == 0
    assert main(["update", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run.json").read_text() == out
    assert (tmp_path / "run.csv").read_text() == csv


RISE = {"breakpoints": [0.0, 0.3, 0.45], "slopes": [0.0, 1.0, 0.0], "intercepts": [0.0, -0.3, 0.15]}


@pytest.mark.parametrize(
    "config, check",
    [
        (
            {"model": "diffop", "initial_bound": RISE, "omega_set": [-5.0, 0.0], "grid": {"h": 0.05, "T": 10.0}},
            lambda trace: trace.steps[-1].bound is trace.steps[-2].bound and trace.stationary_at is not None,
        ),
        (
            {
                "model": "diffop",
                "initial_bound": RISE,
                "omega_set": [-5.0, 0.0],
                "grid": {"h": 0.05, "T": 10.0},
                "iteration": {"max_steps": 2},
            },
            lambda trace: len(trace.steps) == 3 and trace.stationary_at is None,
        ),
        (
            {**CONFIG_53, "model": {"tabulated": {"pairs": [[1.0, 0.5], [2.0, 1.0]]}}, "omega_set": [2.0, 1.0]},
            lambda trace: all(step.argmin_omegas == (1.0, 2.0) for step in trace.steps),
        ),
        (
            # a start of the shift benchmark's "rise" family: flat, an early rise,
            # then positive slopes; its bounds pass the check against the norm
            {
                "model": "diffop",
                "initial_bound": PiecewiseLogAffineBound.from_slopes(
                    [0.2, 1.1, 2.4, 0.7, 1.8], [0.3, 1.4, 2.2, 3.5]
                ).to_json_dict(),
                "omega_set": np.linspace(-5.0, 5.0, 40).tolist(),
                "grid": {"h": 0.05, "T": 20.0},
                "iteration": {"max_steps": 8, "use_semigroupize": True},
            },
            lambda trace: len(trace.steps) > 2 and trace.steps[2].bound != trace.steps[1].bound,
        ),
    ],
    ids=["repeated_step", "max_steps", "every_abscissa", "benchmark_shaped_shift"],
)
def test_iterate_report_text_is_json_dumps(capsys, tmp_path, config, check):
    # the report is joined from one text per bound and grid object; it must be
    # the text json.dumps gives for the trace, on stdout and in --out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["iterate", "--config", str(cfg), "--format", "json"])
    assert code == 0
    m0, profile = cli._build_bound(config["initial_bound"]), cli._build_profile(config["model"])
    max_steps = config.get("iteration", {}).get("max_steps", 8)
    trace = iterate(m0, config["omega_set"], profile, max_steps, cli._build_grid(config["grid"]))
    assert check(trace)
    assert out == json.dumps(trace.to_json_dict()) + "\n"
    assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--format", "json"]) == 0
    assert (tmp_path / "run.json").read_text() == out



# on the shift, this start falls to log m0 = -0.25 at t = 0.5: iterate's step 0
# is the start itself, and every update is at most m0
BELOW_NORM = {"breakpoints": [0.0, 0.5], "slopes": [-0.5, 1.0], "intercepts": [0.0, -0.75]}


@pytest.mark.parametrize(
    "command, config, message",
    [
        (
            "iterate",
            {
                "model": "diffop",
                "initial_bound": BELOW_NORM,
                "omega_set": [-40.0, 0.0],
                "grid": {"h": 0.15, "T": 6.0},
                "iteration": {"max_steps": 3, "use_semigroupize": True},
            },
            "step 0: log m = -0.25 is below log||S(t)|| = 0 at t = 0.5",
        ),
        (
            "update",
            {"model": "diffop", "initial_bound": BELOW_NORM, "omega_set": [-1.0, 0.0]},
            "singles row 0 (omega = -1.0): log m = ",
        ),
    ],
    ids=["iterate", "update"],
)
def test_shift_bound_below_the_norm_exits_3(capsys, tmp_path, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, [command, "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 3
    assert out == "" and not list(tmp_path.glob("run*"))
    assert f"numeric failure: {message}" in err
    assert "Traceback" not in err


def test_rise_start_iterates_above_the_norm_between_grid_points(capsys, tmp_path):
    # the start is valid on the shift and h = 0.15 does not divide 1, where a grid
    # interpolant passed under the norm: every step keeps log m >= 0 on [0, 1)
    config = {
        "model": "diffop",
        "initial_bound": RISE,
        "omega_set": [-40.0, 0.0],
        "grid": {"h": 0.15, "T": 6.0},
        "iteration": {"max_steps": 3, "use_semigroupize": True},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["iterate", "--config", str(cfg), "--format", "json"])
    assert code == 0
    steps = json.loads(out)["steps"]
    assert len(steps) > 1
    for step in steps:
        bound = PiecewiseLogAffineBound.from_json_dict(step["bound"])
        assert min(bound.log_at(k * 1e-3) for k in range(1000)) >= 0.0


# -- the CSV writer against the row-by-row oracle --------------------------------


def csv_oracle(rows):
    """The CSV text written one row at a time: the header, then ``t,value,label``
    per row, the floats at 17 significant digits, each line ending in a newline."""
    return "".join(["t,value,label\n", *(f"{t:.17g},{v:.17g},{label}\n" for t, v, label in rows)])


# every label a subcommand writes, bar iterate's step0, step1, ...
CLI_LABELS = [
    "wei", "min_update", "chain", "true_norm", "numerical_range", "bound_3_omegas", "bound_101_omegas",
    "diffop_rate", "rate", "r_eq_omega", "r_eq_omega_plus_1", "matched_rate_pi_4", "matched_rate_pi_2",
    "matched_rate_pi_8", "threshold_lower", "threshold_upper",
]
EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
CSV_VALUES = st.floats() | st.sampled_from(EDGE_VALUES) | st.integers(-(2**64), 2**64)
CSV_LABELS = st.sampled_from(CLI_LABELS) | st.integers(0, 100).map(lambda k: f"step{k}")


class TestCsvOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(CSV_VALUES, CSV_VALUES, CSV_LABELS), max_size=30))
    @example([])
    @example([(t, v, label) for t, v in zip(EDGE_VALUES, [*EDGE_VALUES[1:], 7]) for label in CLI_LABELS])
    def test_rows_csv_is_the_row_by_row_text(self, rows):
        assert cli._rows_csv(rows) == csv_oracle(rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["wei", "1.0", "--t-max", "1"],
            ["figure", "omegar"],
            ["figure", "jordan3", "--t-max", "1"],
            ["figure", "diffop_r", "--omega-max", "-2"],
            ["profile", "--count", "3"],
            ["profile", "--model", "jordan", "--omega-min", "0.1", "--count", "3"],
        ],
        ids=["wei", "omegar", "jordan3", "diffop_r", "profile_diffop", "profile_jordan"],
    )
    def test_rows_subcommands_write_the_oracle_text(self, capsys, argv):
        # the rows of --format json, rebuilt as CSV by the oracle, are the CSV output,
        # and every label among them is one the Hypothesis test draws
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        rows = [(r["t"], r["value"], r["label"]) for r in json.loads(out)]
        assert {label for _, _, label in rows} <= set(CLI_LABELS)
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == csv_oracle(rows)

    @pytest.mark.parametrize("command", ["update", "iterate"])
    def test_report_csv_is_the_oracle_of_its_bounds(self, capsys, tmp_path, command):
        # update writes min_update and the chain's last bound, iterate every step's
        # bound, each read back from the JSON report and evaluated on t = k h
        config = {**CONFIG_53, "grid": {"h": 0.25, "T": 10.0}, "iteration": {"max_steps": 3}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run.json").read_text())
        if command == "update":
            labelled = [(report["min_update"], "min_update"), (report["chain"][-1]["bound"], "chain")]
        else:
            labelled = [(step["bound"], f"step{step['index']}") for step in report["steps"]]
        h, n = cli._build_grid(config["grid"])
        ts = np.arange(n + 1) * h
        rows = [
            (t, v, label)
            for bound, label in labelled
            for t, v in zip(ts.tolist(), _log_values(PiecewiseLogAffineBound.from_json_dict(bound), ts).tolist())
        ]
        assert len(rows) == 41 * len(labelled)
        assert (tmp_path / "run.csv").read_text() == csv_oracle(rows)
        code, out, _ = run(capsys, [command, "--config", str(cfg), "--format", "csv"])
        assert code == 0 and out == csv_oracle(rows)


# log m(0) = 5e-13 is within the normalization tolerance; the closure's squaring
# compounds the translates' jumps of 5e-13 past the continuity slack
POSITIVE_AT_ZERO = {"breakpoints": [0.0, 0.25], "slopes": [0.0, 1.0], "intercepts": [5e-13, -0.2499999999995]}


@pytest.mark.parametrize("command", ["update", "iterate"])
def test_a_start_the_closure_cannot_close_names_log_m_at_zero(capsys, tmp_path, command):
    config = {"initial_bound": POSITIVE_AT_ZERO, "omega_set": [0.0], "grid": {"h": 0.1, "T": 2.0}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == "config error: cannot close a bound whose log m(0) is 5e-13, not 0\n"
    # the same start with log m(0) = 0 closes
    config["initial_bound"] = {**POSITIVE_AT_ZERO, "intercepts": [0.0, -0.25]}
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 0
