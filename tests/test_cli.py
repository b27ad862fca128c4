import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from dsgd_lab import dynamics
from dsgd_lab.cli import PRESETS, main, preset_config
from dsgd_lab.config import REQUIRED, SCHEMA, ExperimentConfig
from dsgd_lab.errors import ConfigError


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


PAIR_EDGES = "0 1 1.0\n"

TWO_CLIENT_CFG = """
# two clients, scalar quadratics with curvature 1 and centers +-1
topology.kind = edge_list
topology.path = {edges}
topology.t = 0.25
objective.kind = quadratic
objective.d = 1
objective.scales = 1, 1
objective.centers = 1, -1
noise.variant = none
run.gamma = 0.1
output.prefix = two
"""


def two_client_config(tmp_path):
    edges = tmp_path / "pair.edges"
    edges.write_text(PAIR_EDGES)
    return write_cfg(tmp_path, TWO_CLIENT_CFG.format(edges=edges))


class TestConfig:
    def test_round_trip_is_identity(self):
        text = (
            "# comment line\n"
            "\n"
            "run.gamma = 0.001\n"
            "topology.kind = ring\n"
            "topology.m = 12\n"
            "noise.variant = minibatch\n"
            "run.coupled = true\n"
            "sweep.gammas = 0.01, 0.02\n"
        )
        cfg = ExperimentConfig.parse(text)
        again = ExperimentConfig.parse(cfg.dumps())
        assert again.values == cfg.values
        assert again.dumps() == cfg.dumps()

    def test_serialization_is_sorted(self):
        cfg = ExperimentConfig.parse("b.z = 1\nb.a = 2\na.k = 3\n")
        assert cfg.dumps() == "a.k = 3\nb.a = 2\nb.z = 1\n"

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ConfigError, match="section.key"):
            ExperimentConfig.parse("gamma 0.1\n")
        with pytest.raises(ConfigError, match="must be section.key"):
            ExperimentConfig.parse("gamma = 0.1\n")
        with pytest.raises(ConfigError, match="empty"):
            ExperimentConfig.parse(".key = 0.1\n")

    def test_typed_getters(self):
        cfg = ExperimentConfig.parse(
            "run.T = 7\nrun.gamma = 2.5e-3\nsweep.gammas = 1, 2,3\n"
            "sweep.m_list = 1, 2,3\ntopology.kind = ring\nrun.seed = ring\n"
            "noise.sigma2 = ring\n"
        )
        assert cfg.get("run", "T") == 7
        assert cfg.get("run", "gamma") == pytest.approx(2.5e-3)
        assert cfg.get("sweep", "gammas") == [1.0, 2.0, 3.0]
        assert cfg.get("sweep", "m_list") == [1, 2, 3]
        assert cfg.get("topology", "kind") == "ring"
        assert cfg.get("objective", "n") == 50
        with pytest.raises(ConfigError, match="missing required"):
            cfg.get("topology", "path")
        with pytest.raises(ConfigError, match="integer"):
            cfg.get("run", "seed")
        with pytest.raises(ConfigError, match="number"):
            cfg.get("noise", "sigma2")

    def test_lists_burn_in_and_unset_keys(self):
        cfg = ExperimentConfig.parse(
            "sweep.m_list = 1, x\nrun.gammas = 1, x\nrun.burn_in = Auto\n"
        )
        with pytest.raises(ConfigError, match="comma-separated list of integers, got 'x'"):
            cfg.get("sweep", "m_list")
        with pytest.raises(ConfigError, match="comma-separated list of numbers, got 'x'"):
            cfg.get("run", "gammas")
        assert cfg.get("run", "burn_in") is None
        cfg.set("run", "burn_in", "12")
        assert cfg.get("run", "burn_in") == 12
        cfg.set("run", "burn_in", "soon")
        with pytest.raises(ConfigError, match="run.burn_in must be an integer or 'auto'"):
            cfg.get("run", "burn_in")
        assert cfg.get("topology", "t") is None
        assert cfg.get("output", "prefix") is None
        with pytest.raises(ConfigError, match="unknown config key run.gama"):
            cfg.get("run", "gama")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_numbers_are_rejected(self, raw):
        cfg = ExperimentConfig.parse(f"noise.sigma2 = {raw}\nrun.gammas = 0.1, {raw}\n")
        with pytest.raises(ConfigError, match=f"noise.sigma2 must be finite, got '{raw}'"):
            cfg.get("noise", "sigma2")
        with pytest.raises(ConfigError, match=f"run.gammas must be finite, got '{raw}'"):
            cfg.get("run", "gammas")

    def test_check_keys_names_the_unknown_key(self):
        cfg = ExperimentConfig.parse("topology.m = 4\ntopology.tt = 0.4\n")
        with pytest.raises(ConfigError, match="unknown config key topology.tt"):
            cfg.check_keys()
        ExperimentConfig.parse("topology.m = 4\n").check_keys()

    def test_apply_assignment(self):
        cfg = ExperimentConfig()
        cfg.apply_assignment("run.gamma=0.5")
        assert cfg.get("run", "gamma") == 0.5
        with pytest.raises(ConfigError):
            cfg.apply_assignment("gamma=0.5")
        with pytest.raises(ConfigError):
            cfg.apply_assignment("run.gamma")

    def test_lines_and_overrides_split_alike(self):
        cfg = ExperimentConfig()
        cfg.apply_assignment(" run . gamma = 0.5 ")
        assert cfg.values == ExperimentConfig.parse("\trun .gamma=  0.5\n").values
        cases = [("gamma", "line 1: expected 'section.key = value', got 'gamma'",
                  "override 'gamma' must look like section.key=value"),
                 ("gamma = 1", "line 1: key 'gamma' must be section.key",
                  "override key 'gamma' must be section.key"),
                 (" .k = 1", "line 1: empty section or key in ' .k = 1'",
                  "override ' .k = 1' has an empty part")]
        for text, line_error, override_error in cases:
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.parse(text)
            assert str(err.value) == line_error
            with pytest.raises(ConfigError) as err:
                ExperimentConfig().apply_assignment(text)
            assert str(err.value) == override_error

    def test_presets_are_valid_configs(self):
        for name in PRESETS:
            cfg = preset_config(name)
            cfg.check_keys()
            assert cfg.get("run", "gamma") == pytest.approx(1e-3)
            assert cfg.get("objective", "d") == 2
            assert cfg.get("topology", "m") == 12
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("fig9")

    def test_readme_table_matches_schema(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        section = text[text.index("### Config format"):text.index("### Presets")]
        rows = [line.split("|")[1:-1] for line in section.splitlines()
                if line.startswith("| `")]
        cells = {key.strip(" `"): default.strip(" `") for key, _, default, _ in rows}
        shown = {REQUIRED: "required", None: "unset"}
        assert list(cells) == list(SCHEMA)
        assert cells == {name: shown.get(default, default)
                         for name, (_, default, _) in SCHEMA.items()}


class TestGraphInfo:
    def test_ring_example(self, tmp_path, capsys):
        rc = main(
            ["graph-info", "--topology", "ring", "--m", "4", "--t", "0.25",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lambda2 = 0.5" in out
        assert "Lambda = 2" in out
        rows = read_csv(tmp_path / "graph_info_graph.csv")
        assert rows[0] == ["m", "lambda2", "lambda_min", "rho", "Lambda", "gap"]
        header = dict(zip(rows[0], rows[1]))
        assert float(header["lambda2"]) == pytest.approx(0.5)
        assert float(header["Lambda"]) == pytest.approx(2.0)

    def test_fully_connected_lambda_zero(self, tmp_path):
        rc = main(
            ["graph-info", "--topology", "full", "--m", "8", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "graph_info_graph.csv")
        header = dict(zip(rows[0], rows[1]))
        assert float(header["Lambda"]) == 0.0
        assert float(header["rho"]) == 0.0

    def test_disconnected_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "disc.edges"
        edges.write_text("0 1\n2 3\n")
        rc = main(
            ["graph-info", "--topology", "edge_list", "--t", "0.25",
             "--set", f"topology.path={edges}", "--out", str(tmp_path)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "Assumption 2 violated" in err
        assert "lambda_2 = 1" in err

    def test_bad_kind_exits_1(self, tmp_path, capsys):
        rc = main(
            ["graph-info", "--topology", "star", "--m", "4", "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "config error" in capsys.readouterr().err


SIM_CFG = """
topology.kind = ring
topology.m = 4
objective.kind = quadratic
objective.d = 2
objective.seed = 3
noise.variant = gaussian
noise.sigma2 = 0.5
run.algorithm = dsgd
run.gamma = 0.02
run.T = 120
run.replicates = 3
run.record_every = 40
run.seed = 1
output.prefix = sim
"""


class TestSimulate:
    def test_writes_trajectories_and_aggregate(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        for r in range(3):
            rows = read_csv(tmp_path / f"sim_replicate{r:03d}.csv")
            assert rows[0] == [
                "t", "dist_opt", "dist_det", "consensus_err", "disagreement_norm"
            ]
            assert len(rows) == 1 + 4  # t = 0, 40, 80, 120
            assert [row[0] for row in rows[1:]] == ["0", "40", "80", "120"]
        agg = read_csv(tmp_path / "sim_aggregate.csv")
        assert agg[0] == ["t", "mean_dist", "std_dist"]
        assert len(agg) == 1 + 4
        # chain started at zero far from the optimum; it should approach it
        assert float(agg[-1][1]) < float(agg[1][1])
        # replicate std at t=0 is zero (common start), positive later
        assert float(agg[1][2]) == 0.0
        assert float(agg[-1][2]) > 0.0

    def test_T_zero_header_only(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        rc = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path),
             "--set", "run.T=0", "--set", "run.replicates=1"]
        )
        assert rc == 0
        assert read_csv(tmp_path / "sim_replicate000.csv") == [
            ["t", "dist_opt", "dist_det", "consensus_err", "disagreement_norm"]
        ]
        assert read_csv(tmp_path / "sim_aggregate.csv") == [
            ["t", "mean_dist", "std_dist"]
        ]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ["sim_replicate000.csv", "sim_replicate002.csv",
                     "sim_aggregate.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        monkeypatch.setenv("DSGD_LAB_SEED", "99")
        main(["simulate", "--config", cfg, "--out", str(out2)])
        monkeypatch.delenv("DSGD_LAB_SEED")
        main(["simulate", "--config", cfg, "--out", str(out3),
              "--set", "run.seed=99"])
        a = (out1 / "sim_aggregate.csv").read_bytes()
        b = (out2 / "sim_aggregate.csv").read_bytes()
        c = (out3 / "sim_aggregate.csv").read_bytes()
        assert a != b
        assert b == c

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, SIM_CFG)
        monkeypatch.setenv("DSGD_LAB_SEED", "abc")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "DSGD_LAB_SEED" in capsys.readouterr().err

    def test_fig2_preset_shape(self, tmp_path):
        rc = main(
            ["simulate", "--preset", "fig2-heterogeneous", "--graph", "ring",
             "--m", "12", "--out", str(tmp_path),
             "--set", "run.T=200", "--set", "run.record_every=100",
             "--set", "output.prefix=fig2"]
        )
        assert rc == 0
        reps = sorted(tmp_path.glob("fig2_replicate*.csv"))
        assert len(reps) == 20
        agg = read_csv(tmp_path / "fig2_aggregate.csv")
        assert len(agg) == 1 + 3
        assert all(np.isfinite(float(v)) for v in agg[-1])

    def test_rr_algorithm_runs(self, tmp_path):
        rc = main(
            ["simulate", "--preset", "fig1-rr-det", "--algorithm", "rr-dgd",
             "--out", str(tmp_path),
             "--set", "run.T=100", "--set", "run.record_every=50",
             "--set", "output.prefix=rr"]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "rr_replicate000.csv")
        assert len(rows) == 1 + 3
        assert float(rows[-1][1]) < float(rows[1][1])

    def test_divergence_exits_2_without_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="exceeds 1/L"), \
                np.errstate(over="ignore", invalid="ignore"):
            rc = main(["simulate", "--topology", "ring", "--m", "4",
                       "--set", "objective.kind=quadratic", "--algorithm", "dgd",
                       "--gamma", "5", "--set", "run.T=2000", "--out", str(out)])
        assert rc == 2
        assert "not finite at step" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_fixed_point_failure_is_reported(self, tmp_path, capsys):
        with pytest.warns(UserWarning, match="exceeds 1/L"), \
                np.errstate(over="ignore", invalid="ignore"):
            rc = main(["simulate", "--topology", "ring", "--m", "4",
                       "--set", "objective.kind=quadratic", "--algorithm", "dgd",
                       "--gamma", "5", "--set", "run.T=50", "--out", str(tmp_path)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "dist_det omitted: fixed-point iterate is not finite at iteration" in err
        rows = read_csv(tmp_path / "simulate_replicate000.csv")
        assert all(row[2] == "nan" for row in rows[1:])

    def test_dsgd_without_noise_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIM_CFG)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--set", "noise.variant=none"])
        assert rc == 1
        assert "noise" in capsys.readouterr().err


class TestPredict:
    def test_two_client_worked_example(self, tmp_path):
        cfg = two_client_config(tmp_path)
        rc = main(["predict", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "two_predictions.csv")
        assert rows[0] == ["quantity", "value"]
        table = {name: float(value) for name, value in rows[1:]}
        assert table["theta_det_pred[0][0]"] == pytest.approx(1.0 / 11.0, abs=1e-12)
        assert table["theta_det_pred[1][0]"] == pytest.approx(-1.0 / 11.0, abs=1e-12)
        assert table["lemma3_bound"] == pytest.approx(0.2 * np.sqrt(2.0))

    def test_fully_connected_all_topology_terms_zero(self, tmp_path):
        rc = main(
            ["predict", "--topology", "full", "--m", "3", "--gamma", "0.05",
             "--set", "objective.kind=quadratic", "--set", "objective.d=2",
             "--set", "objective.seed=5", "--out", str(tmp_path),
             "--set", "output.prefix=fc"]
        )
        assert rc == 0
        table = {
            name: float(value)
            for name, value in read_csv(tmp_path / "fc_predictions.csv")[1:]
        }
        assert table["lemma3_bound"] == 0.0
        assert table["det_residual_bound"] == 0.0
        assert table["rr_bias_bound"] == 0.0
        for k in range(3):
            assert table[f"bias_first_order[{k}][0]"] == 0.0
            assert table[f"bias_first_order[{k}][1]"] == 0.0

    def test_fig2_data_seed_8_solves(self, tmp_path):
        rc = main(["predict", "--preset", "fig2-heterogeneous",
                   "--set", "objective.seed=8", "--out", str(tmp_path)])
        assert rc == 0

    def test_step_gate_exits_2(self, tmp_path, capsys):
        cfg = two_client_config(tmp_path)
        rc = main(["predict", "--config", cfg, "--gamma", "0.55",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "2/((1 + L/mu) L Lambda)" in capsys.readouterr().err


COMPARE_CFG = """
topology.kind = ring
topology.m = 4
objective.kind = quadratic
objective.d = 2
objective.seed = 3
noise.variant = gaussian
noise.sigma2 = 0.5
run.algorithm = dsgd
run.gamma = 0.02
run.gammas = 0.02, 0.01, 0.005, 0.0025
run.T = 30000
run.replicates = 8
run.seed = 2
output.prefix = cmp
"""


class TestCompare:
    def test_all_claims_pass(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPARE_CFG)
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "cmp_verdicts.csv")
        assert rows[0] == ["claim", "predicted", "observed", "tolerance", "status"]
        table = {row[0]: row for row in rows[1:]}
        assert set(table) == {
            "LEMMA3", "BIAS_ORDER1", "RR_ORDER2", "PROP3_MEAN", "PROP4_BLOCK"
        }
        assert all(row[4] == "pass" for row in rows[1:])
        assert float(table["LEMMA3"][2]) <= float(table["LEMMA3"][1])
        assert abs(float(table["BIAS_ORDER1"][2]) - 1.0) <= 0.05
        assert abs(float(table["RR_ORDER2"][2]) - 2.0) <= 0.2

    def test_overflowed_statistics_exit_2(self, tmp_path, capsys):
        # the replicates' squared deviations overflow to inf, whose z-scores
        # of 0 once passed PROP3_MEAN and PROP4_BLOCK
        cfg = write_cfg(tmp_path, COMPARE_CFG)
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path),
                   "--set", "noise.sigma2=1e300", "--set", "run.replicates=2",
                   "--set", "run.T=400"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "diverged: stationary moments of 2 replicates are not finite: "
            "their mean, covariance or scatter overflowed\n")
        assert not list(tmp_path.rglob("*.csv"))

    def test_deterministic_subset_without_noise(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPARE_CFG)
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path),
                   "--set", "noise.variant=none"])
        assert rc == 0
        claims = [row[0] for row in read_csv(tmp_path / "cmp_verdicts.csv")[1:]]
        assert claims == ["LEMMA3", "BIAS_ORDER1", "RR_ORDER2"]

    def test_saturating_grid_fails_with_exit_2(self, tmp_path):
        # gammas near the stability edge: the fixed-point bias behaves like
        # gamma/(1+gamma), so the log-log slope drops well under 0.95
        cfg = two_client_config(tmp_path)
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path),
                   "--set", "run.gammas=0.45,0.3,0.2,0.15"])
        assert rc == 2
        rows = read_csv(tmp_path / "two_verdicts.csv")
        statuses = {row[0]: row[4] for row in rows[1:]}
        assert statuses["LEMMA3"] == "pass"
        assert statuses["BIAS_ORDER1"] == "fail"

    def test_short_grid_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPARE_CFG)
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path),
                   "--set", "run.gammas=0.02,0.01", "--set", "noise.variant=none"])
        assert rc == 1
        assert "at least 3" in capsys.readouterr().err

    @pytest.mark.parametrize("gammas, reason", [
        ("0.01,-0.01,0.02", "run.gammas must be positive, got -0.01"),
        ("0.01,0.01,0.02", "run.gammas must be distinct"),
    ])
    def test_bad_grid_is_a_config_error(self, tmp_path, capsys, gammas, reason):
        cfg = write_cfg(tmp_path, COMPARE_CFG)
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path),
                   "--set", f"run.gammas={gammas}", "--set", "noise.variant=none"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {reason}")
        assert not (tmp_path / "cmp_verdicts.csv").exists()


SWEEP_CFG = """
topology.kind = ring
topology.m = 4
objective.kind = quadratic
objective.d = 2
objective.seed = 3
noise.variant = none
run.algorithm = dgd
run.gamma = 0.01
run.T = 400
run.replicates = 2
run.seed = 1
sweep.m_list = 4, 8
sweep.topologies = fully_connected, ring
sweep.gammas = 0.01
output.prefix = swp
"""


class TestSweep:
    def test_grid_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "swp_sweep.csv")
        assert rows[0] == ["m", "topology", "gamma", "metric", "value"]
        assert len(rows) == 1 + 2 * 2 * 1 * 4
        # deterministic cell order: m-major, then topology, then gamma
        assert [r[0] for r in rows[1:5]] == ["4"] * 4
        assert [r[1] for r in rows[1:5]] == ["fully_connected"] * 4
        table = {
            (r[0], r[1], r[3]): float(r[4]) for r in rows[1:]
        }
        # fully connected network has no deterministic bias; ring does
        assert table[("4", "fully_connected", "bias_norm")] < 1e-12
        assert table[("4", "ring", "bias_norm")] > 1e-4
        assert table[("4", "ring", "bias_norm")] == pytest.approx(
            table[("4", "ring", "bias_norm_pred")], rel=0.05
        )
        # zero-noise cells report zero stationary traces
        assert table[("8", "ring", "stat_trace")] == 0.0

    def test_single_cell_matches_compare(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--set", "sweep.m_list=4", "--set", "sweep.topologies=ring"])
        assert rc == 0
        sweep_rows = read_csv(tmp_path / "swp_sweep.csv")
        bias = [r for r in sweep_rows[1:] if r[3] == "bias_norm"][0][4]
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        cmp_rows = read_csv(tmp_path / "swp_verdicts.csv")
        lemma3 = [r for r in cmp_rows[1:] if r[0] == "LEMMA3"][0]
        assert lemma3[2] == bias  # identical 17-digit strings

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1),
                     "--threads", "1",
                     "--set", "noise.variant=gaussian"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2),
                     "--threads", "3",
                     "--set", "noise.variant=gaussian"]) == 0
        assert (out1 / "swp_sweep.csv").read_bytes() == (
            out2 / "swp_sweep.csv"
        ).read_bytes()

    def test_noisy_sweep_needs_no_run_gamma(self, tmp_path):
        # each gamma's cells run at that gamma, whatever run.gamma says
        with_gamma = write_cfg(tmp_path, SWEEP_CFG)
        without = write_cfg(tmp_path, SWEEP_CFG.replace("run.gamma = 0.01\n", ""),
                            name="nogamma.cfg")
        for cfg, out in ((with_gamma, tmp_path / "a"), (without, tmp_path / "b")):
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--set", "noise.variant=gaussian"]) == 0
        assert (tmp_path / "a" / "swp_sweep.csv").read_bytes() == (
            tmp_path / "b" / "swp_sweep.csv"
        ).read_bytes()

    def test_noise_free_sweep_builds_no_run_config(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("a noise-free sweep built a RunConfig")

        monkeypatch.setattr(dynamics.RunConfig, "__post_init__", refuse)
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--set", "run.T=-1"]) == 0

    def test_overflowed_statistics_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--set", "noise.variant=gaussian", "--set", "noise.sigma2=1e300",
                   "--set", "run.algorithm=dsgd", "--set", "sweep.m_list=4"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("diverged: stationary moments of 2 replicates")
        assert not list(tmp_path.rglob("*.csv"))

    def test_empty_gamma_list_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--set", "sweep.gammas="])
        assert rc == 1
        assert "sweep.gammas is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("key, values", [("m_list", "4,4"), ("topologies", "ring,ring"),
                                             ("gammas", "0.01,0.01")])
    def test_repeated_value_exits_1(self, tmp_path, capsys, key, values):
        # a repeated value would write every cell it spans twice
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--set", f"sweep.{key}={values}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep.{key} repeats a value")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.rglob("*.csv"))

    def test_budget_guard(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        gammas = ",".join(str(0.001 * (i + 1)) for i in range(51))
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--set", f"sweep.gammas={gammas}"])
        assert rc == 1
        assert "limit is 200" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dsgd_lab.cli", "graph-info",
             "--topology", "ring", "--m", "5", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "lambda2" in proc.stdout

    def test_malformed_set_exits_1(self, tmp_path, capsys):
        rc = main(["graph-info", "--topology", "ring", "--m", "4",
                   "--set", "bogus", "--out", str(tmp_path)])
        assert rc == 1

    def test_unknown_key_exits_1_without_csv(self, tmp_path, capsys):
        rc = main(["graph-info", "--preset", "fig1-rr-sto",
                   "--set", "topology.tt=0.4", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown config key topology.tt" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_typo_in_config_file_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIM_CFG + "run.gama = 0.001\n")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown config key run.gama" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_malformed_integer_exits_1(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "fig1-rr-det", "--set", "run.T=abc",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "run.T must be an integer" in capsys.readouterr().err

    def test_unknown_preset_exits_1(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "fig9", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_negative_data_seed_exits_1(self, tmp_path, capsys):
        rc = main(["predict", "--preset", "fig2-heterogeneous", "--set", "objective.seed=-3",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_vanishing_ridge_weight_runs(self, tmp_path):
        # gamma mu = 1e-303 once made the default burn-in divide by log(1) = 0
        rc = main(["simulate", "--preset", "fig2-heterogeneous",
                   "--set", "objective.lambda_reg=1e-300", "--set", "run.T=50",
                   "--set", "run.replicates=2", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "simulate_aggregate.csv").read_text().splitlines()
        assert rows[0] == "t,mean_dist,std_dist" and len(rows) > 1

    @pytest.mark.parametrize("command", [
        ["predict", "--preset", "fig2-heterogeneous"],
        ["sweep", "--preset", "fig2-heterogeneous", "--set", "noise.variant=none",
         "--set", "sweep.m_list=4", "--set", "sweep.topologies=ring",
         "--set", "sweep.gammas=0.01"],
    ], ids=["predict", "sweep"])
    def test_vanishing_ridge_weight_exits_1_in_the_bounds(self, tmp_path, capsys, command):
        # mu^2 = 1e-600 underflows to 0, and the bounds divide by it
        rc = main([*command, "--set", "objective.lambda_reg=1e-300", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: strong convexity mu = 1e-300 is too small for the bounds: mu^2 is 0\n")
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("lam, mu_sq", [("1e-155", "1e-310"), ("1e-160", "1e-320")])
    def test_subnormal_mu_squared_exits_1(self, tmp_path, capsys, lam, mu_sq):
        # a subnormal mu^2 once wrote the bounds as inf and exited 0
        rc = main(["predict", "--preset", "fig2-heterogeneous",
                   "--set", f"objective.lambda_reg={lam}", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: strong convexity mu = {lam} is too small for the bounds: mu^2 is {mu_sq}\n")
        assert not list(tmp_path.rglob("*.csv"))

    def test_overflowing_bounds_exit_1(self, tmp_path, capsys):
        # mu^2 = 1e-300 is a normal float, but the bounds that divide by it
        # once overflowed and were written as inf with exit 0
        rc = main(["predict", "--preset", "fig2-heterogeneous",
                   "--set", "objective.lambda_reg=1e-150", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error: det_residual_bound overflows to inf at mu = 1e-150, "
                       "L = 1.62: the bounds are out of floating-point range\n")
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("overrides", [["--set", "noise.variant=none"],
                                           ["--topology", "ring", "--m", "4", "--t", "0.5"]])
    def test_infs_a_bound_takes_by_its_own_branch_are_written(self, tmp_path, overrides):
        # C is inf at tau_2^2 = 0, and the topology terms at rho = 1 (a ring
        # of 4 at t = 0.5 has eigenvalue -1)
        assert main(["predict", "--preset", "fig2-heterogeneous", *overrides,
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "predict_predictions.csv") as fh:
            infs = {row["quantity"] for row in csv.DictReader(fh) if row["value"] == "inf"}
        assert infs == ({"diag_C"} if overrides[1] == "noise.variant=none" else
                        {"diag_term_gamma_2", "diag_term_gamma_5_2", "diag_var_topology"})

    def test_predict_is_byte_identical_at_one_and_two_tau_workers(self, tmp_path, monkeypatch):
        # the minibatch tau pass runs on one thread per usable CPU
        written = []
        for workers in (1, 2):
            monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: workers)
            out = tmp_path / str(workers)
            assert main(["predict", "--preset", "fig2-heterogeneous", "--out", str(out)]) == 0
            written.append((out / "predict_predictions.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("where", ["set", "env"])
    def test_negative_run_seed_exits_1(self, tmp_path, monkeypatch, capsys, where):
        # seed -1 would read the streams of seed 2**64 - 1
        args = ["simulate", "--preset", "fig1-rr-sto", "--set", "run.T=10", "--out", str(tmp_path)]
        if where == "set":
            args += ["--set", "run.seed=-1"]
        else:
            monkeypatch.setenv("DSGD_LAB_SEED", "-1")
        assert main(args) == 1
        assert capsys.readouterr().err == "error: seed must be in [0, 2**64), got -1\n"
        assert not list(tmp_path.rglob("*.csv"))



class TestNonFinite:
    """A nan or inf given on the command line exits 1 with one line, no CSV."""

    @pytest.mark.parametrize("sigma2", ["nan", "inf"])
    def test_predict_rejects_non_finite_sigma2(self, tmp_path, capsys, sigma2):
        rc = main(["predict", "--topology", "ring", "--m", "4", "--set", "run.gamma=0.01",
                   "--set", "objective.kind=quadratic", "--set", "noise.variant=gaussian",
                   "--set", f"noise.sigma2={sigma2}", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"config error: noise.sigma2 must be finite, got '{sigma2}'\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_graph_info_rejects_nan_t_on_clusters(self, tmp_path, capsys):
        rc = main(["graph-info", "--topology", "clusters", "--m", "4",
                   "--set", "topology.clusters=2", "--t", "nan", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "config error: topology.t must be finite, got 'nan'\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_graph_info_rejects_nan_t_on_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "pair.edges"
        edges.write_text(PAIR_EDGES)
        rc = main(["graph-info", "--topology", "edge_list", "--t", "nan",
                   "--set", f"topology.path={edges}", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "config error: topology.t must be finite, got 'nan'\n"
        assert not list(tmp_path.rglob("*.csv"))
