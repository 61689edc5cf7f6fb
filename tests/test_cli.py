import csv
import glob
import math
import os
import numpy as np
import pytest
import yaml

import tbal.cli as cli
import tbal.model as linmod
from tbal import engine
from tbal.cli import (VALIDATION_SIZE, ConfigFileError, _subsample_validation,
                      build_run_config, load_config, main, print_summary,
                      run_experiment, run_single)
from tbal.confidence import AbsMargin, Energy
from tbal.core import AUTO, KINDS, UNLABELED
from tbal.data import make_dataset
from tbal.metrics import clopper_pearson_upper
from tbal.query import QueryConfig
from tbal.theory import band_probability_bound, rademacher_vc
from tbal.threshold import ThresholdConfig


BASE_CONFIG = {
    "dataset": {"kind": "xor", "d": 2, "n_total": 700, "pool_size": 500,
                "val_size": 200},
    "methods": ["tbal", "pl"],
    "epsilon_a": 0.05,
    "sweep": {"axis": "train_budget", "grid": [40, 80]},
    "trials": 2,
    "seed_base": 0,
    "train": {"epochs": 20},
}

UNIT_BALL = dict(BASE_CONFIG["dataset"], kind="unit_ball", d=4)
MNIST = {"kind": "mnist_linear", "n_total": 700, "pool_size": 500, "val_size": 200,
         "images_path": "images.idx", "labels_path": "labels.idx"}


def write_config(tmp_path, overrides=None, **top):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    cfg.update(top)
    for dotted, v in (overrides or {}).items():
        block, key = dotted.split(".")
        cfg.setdefault(block, {})[key] = v
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def assert_config_error(tmp_path, capsys, command, message, flags=(), **top):
    """``tbal <command> <flags>`` on the base config with ``top`` set exits 2
    with ``message`` before running or writing anything."""
    path = write_config(tmp_path, out=str(tmp_path / "o"), **top)
    argv = [command, "--config", path, *flags]
    if command == "export":
        argv += ["--out", str(tmp_path / "labels.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert os.listdir(tmp_path) == ["exp.yaml"]  # nothing ran, nothing written


class TestLoadConfig:
    def test_valid_config(self, tmp_path):
        exp = load_config(write_config(tmp_path))
        assert exp.methods == ["tbal", "pl"]
        assert exp.grid == [40, 80]
        assert exp.epsilon_a == 0.05
        assert exp.train.epochs == 20

    def test_unknown_top_key(self, tmp_path):
        with pytest.raises(ConfigFileError, match="unknown key"):
            load_config(write_config(tmp_path, epsilon=0.1))

    def test_unknown_nested_key(self, tmp_path):
        with pytest.raises(ConfigFileError, match="dataset"):
            load_config(write_config(tmp_path, overrides={"dataset.size": 10}))
        with pytest.raises(ConfigFileError, match="train"):
            load_config(write_config(tmp_path, overrides={"train.momentum": 0.9}))

    def test_missing_required(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        del cfg["methods"]
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigFileError, match="methods"):
            load_config(str(p))

    def test_validation_sweep_needs_budget(self, tmp_path):
        path = write_config(tmp_path,
                            sweep={"axis": "validation_size", "grid": [50, 100]})
        with pytest.raises(ConfigFileError, match="N_q"):
            load_config(path)

    def test_unknown_method(self, tmp_path):
        with pytest.raises(ConfigFileError, match="unknown method"):
            load_config(write_config(tmp_path, methods=["tbal", "dagger"]))

    @pytest.mark.parametrize("command", ["run", "export"])
    @pytest.mark.parametrize("kind", ["platt", "entropy"])
    def test_unknown_confidence_kind_exits_2(self, tmp_path, capsys, command, kind):
        assert_config_error(tmp_path, capsys, command, f"unknown confidence kind {kind!r}",
                            confidence=kind)

    @pytest.mark.parametrize("command", ["run", "export"])
    @pytest.mark.parametrize("top, message", [
        ({"threshold": {"sigma_kind": "stdrr"}}, "threshold.sigma_kind"),
        ({"threshold": {"sigma_kind": "zero"}}, "threshold.sigma_kind"),
        ({"query": {"strategy": "margn_random"}}, "unknown query strategy"),
        ({"sweep": {"axis": "train_budget", "grid": [40], "N_q": 999}}, "sweep.N_q"),
        ({"confidence": "softmax", "energy_temperature": 2.0}, "energy_temperature"),
        ({"threshold": {"delta": 2.0}}, "delta must be in (0, 1)"),
        ({"threshold": {"delta": 0}}, "delta must be in (0, 1)"),
        ({"confidence": "energy", "energy_temperature": 0}, "temperature"),
        ({"confidence": "energy", "energy_temperature": -1.0}, "temperature"),
        ({"trials": 0}, "trials must be >= 1"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"train": {"loss": "hinje"}}, "unknown loss 'hinje'"),
        ({"train": {"l2": "abc"}}, "train.l2 must be a number, not 'abc'"),
        ({"train": {"epochs": 2.5}}, "train.epochs must be an integer"),
        ({"threshold": {"n0": True}}, "threshold.n0 must be a number"),
        ({"query": {"C": math.inf}}, "query.C must be finite"),
        ({"dataset": dict(BASE_CONFIG["dataset"], xor_radius="wide")},
         "dataset.xor_radius must be a number"),
        ({"train": {"batch_size": 0}}, "batch_size must be >= 1"),
        ({"trials": 2.5}, "trials must be an integer, not 2.5"),
        ({"workers": "two"}, "workers must be a number, not 'two'"),
        ({"seed_base": 0.5}, "seed_base must be an integer"),
        ({"n_s": 1.5}, "n_s must be an integer"),
        ({"n_b": True}, "n_b must be a number"),
        ({"sweep": {"axis": "train_budget", "grid": [40, 8.5]}},
         "sweep.grid[1] must be an integer, not 8.5"),
        ({"sweep": {"axis": "train_budget", "grid": 40}},
         "sweep.grid must be a nonempty list"),
        ({"sweep": {"axis": "validation_size", "grid": [40], "N_q": "many"}},
         "sweep.N_q must be a number, not 'many'"),
        ({"n_s": 0}, "n_s must be >= 1, not 0"),
        ({"n_b": 0}, "n_b must be >= 1, not 0"),
        ({"sweep": {"axis": "train_budget", "grid": [40, 0]}},
         "sweep.grid[1] must be >= 1, not 0"),
        ({"sweep": {"axis": "validation_size", "grid": [40], "N_q": 0}},
         "sweep.N_q must be >= 1, not 0"),
        ({"n_s": 600, "sweep": {"axis": "train_budget", "grid": [500]}},
         "n_s must not exceed the smallest budget 500, not 600"),
        ({"n_s": 60, "sweep": {"axis": "train_budget", "grid": [80, 40]}},
         "n_s must not exceed the smallest budget 40, not 60"),
        ({"n_s": 600, "sweep": {"axis": "validation_size", "grid": [40], "N_q": 500}},
         "n_s must not exceed the smallest budget 500, not 600"),
        ({"sweep": {"axis": "validation_size", "grid": [100, -5], "N_q": 80}},
         "sweep.grid[1] must be >= 0, not -5"),
        ({"confidence": "energy", "energy_temperature": "abc"},
         "energy_temperature must be a number, not 'abc'"),
        ({"confidence": "energy", "energy_temperature": True},
         "energy_temperature must be a number, not True"),
        ({"epsilon_a": "abc"}, "epsilon_a must be a number, not 'abc'"),
        ({"dataset": dict(BASE_CONFIG["dataset"], kind="bogus")},
         "unknown dataset kind 'bogus'"),
        ({"dataset": dict(UNIT_BALL, d=1)}, "dimension d must be >= 2, got 1"),
        ({"dataset": dict(BASE_CONFIG["dataset"], xor_radius=3.0)},
         "xor_radius must be in (0, 2], got 3.0"),
        ({"dataset": dict(MNIST, images_path=None)}, "needs images_path and labels_path"),
        ({"train": {"loss": "logistic"}}, "confidence: abs_margin is defined for binary "
         "models only, and train.loss: logistic"),
        ({"dataset": dict(BASE_CONFIG["dataset"], d=30)},
         "dataset.d must be 2 on kind xor, not 30"),
        ({"dataset": dict(MNIST, d=784)}, "dataset.d is not read by kind mnist_linear"),
        ({"dataset": dict(UNIT_BALL, xor_radius=1.0)},
         "dataset.xor_radius is read by kind xor only"),
        ({"dataset": dict(BASE_CONFIG["dataset"], images_path="i.idx")},
         "dataset.images_path is read by kind mnist_linear only"),
        ({"dataset": dict(UNIT_BALL, labels_path="l.idx")},
         "dataset.labels_path is read by kind mnist_linear only"),
        ({"dataset": dict(BASE_CONFIG["dataset"], n_total=3, pool_size=2, val_size=1)},
         "n_total must be >= 4 on kind xor, got 3"),
        ({"dataset": dict(BASE_CONFIG["dataset"], pool_size=0)},
         "pool_size must be >= 1, got 0"),
        ({"dataset": dict(UNIT_BALL, val_size=-5)}, "val_size must be >= 0, got -5"),
        ({"train": {"loss": "logistic", "normalized": False}, "confidence": "softmax"},
         "train.normalized is read by train.loss: hinge only"),
        ({"train": {"loss": "logistic", "init_scale": 1.0}, "confidence": "softmax"},
         "train.init_scale is read by train.loss: hinge with normalized: false only"),
        ({"train": {"normalized": True, "init_scale": 1.0}},
         "train.init_scale is read by train.loss: hinge with normalized: false only"),
        ({"train": {"l2": -1.0}}, "l2 must be >= 0, got -1.0"),
        ({"train": {"tolerance": -1.0}}, "tolerance must be >= 0, got -1.0"),
        ({"train": {"init_scale": -5.0}}, "init_scale must be >= 0, got -5.0"),
        ({"methods": ["tbal", "tbal"]}, "methods[1] repeats 'tbal'"),
        ({"methods": ["pl", "tbal", "pl"]}, "methods[2] repeats 'pl'"),
        ({"methods": []}, "methods must be a nonempty list, not []"),
        ({"methods": "tbal"}, "methods must be a nonempty list, not 'tbal'"),
        ({"sweep": {"axis": "train_budget", "grid": [100, 100]}},
         "sweep.grid[1] repeats 100"),
        ({"sweep": {"axis": "train_budget", "grid": [40, 80, 40.0]}},
         "sweep.grid[2] repeats 40"),
        ({"sweep": {"axis": "validation_size", "grid": [50, 50], "N_q": 80}},
         "sweep.grid[1] repeats 50"),
    ], ids=["unknown_sigma_kind", "zero_sigma_kind", "unknown_strategy",
            "N_q_on_budget_sweep", "temperature_without_energy", "delta_above_one",
            "delta_zero", "temperature_zero", "temperature_negative", "trials_zero",
            "workers_zero", "unknown_loss", "l2_not_a_number", "epochs_not_an_integer",
            "n0_boolean", "C_infinite", "xor_radius_not_a_number", "batch_size_zero",
            "trials_not_an_integer", "workers_not_a_number", "seed_base_not_an_integer",
            "n_s_not_an_integer", "n_b_boolean", "grid_value_not_an_integer",
            "grid_not_a_list", "N_q_not_a_number", "n_s_zero", "n_b_zero",
            "budget_zero", "N_q_zero", "n_s_above_budget", "n_s_above_smallest_budget",
            "n_s_above_N_q", "validation_size_negative", "temperature_not_a_number",
            "temperature_boolean", "epsilon_a_not_a_number", "unknown_dataset_kind",
            "unit_ball_d_one", "xor_radius_above_two", "mnist_without_paths",
            "logistic_abs_margin", "xor_d_not_two", "d_on_mnist", "xor_radius_on_unit_ball",
            "images_path_on_xor", "labels_path_on_unit_ball", "xor_n_total_three",
            "pool_size_zero", "val_size_negative", "normalized_on_logistic",
            "init_scale_on_logistic", "init_scale_on_normalized", "l2_negative",
            "tolerance_negative", "init_scale_negative", "method_repeated",
            "method_repeated_apart", "methods_empty", "methods_not_a_list",
            "budget_repeated", "budget_repeated_as_float", "validation_size_repeated"])
    def test_value_a_run_would_fail_on_or_ignore_exits_2(self, tmp_path, capsys,
                                                           command, top, message):
        assert_config_error(tmp_path, capsys, command, message, **top)

    def test_workers_flag_below_one_exits_2(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys, "run", "--workers must be >= 1",
                            flags=["--workers", "0"])

    def test_blocks_become_their_dataclasses(self, tmp_path):
        exp = load_config(write_config(
            tmp_path, confidence="energy", energy_temperature=2,
            threshold={"n0": 7, "sigma_kind": "hoeffding", "delta": 0.1,
                       "per_class": False},
            query={"strategy": "random", "C": 3.0}))
        assert exp.threshold == ThresholdConfig(epsilon_a=0.05, n0=7, sigma_kind="hoeffding",
                                                delta=0.1, per_class=False)
        assert exp.epsilon_a == 0.05
        assert exp.query == QueryConfig(strategy="random", C=3.0)
        assert exp.confidence == Energy(temperature=2.0)
        cfg = build_run_config(exp, "tbal", N_q=200)
        assert cfg.threshold is exp.threshold and cfg.confidence is exp.confidence
        assert cfg.query == exp.query

    def test_exponent_floats_are_numbers(self, tmp_path):
        assert yaml.safe_load("l2: 1e-4") == {"l2": "1e-4"}  # YAML 1.1: a string
        dataset = dict(BASE_CONFIG["dataset"], n_total="7e2", xor_radius="5e-1")
        exp = load_config(write_config(
            tmp_path, train={"l2": "1e-4", "learning_rate": "1e-3", "epochs": "2e1"},
            threshold={"n0": "1e1", "delta": "5e-2"}, query={"C": "3e0"},
            dataset=dataset))
        assert (exp.dataset.n_total, exp.dataset.xor_radius) == (700, 0.5)
        assert exp.train == linmod.TrainConfig(l2=0.0001, learning_rate=0.001, epochs=20)
        assert exp.threshold == ThresholdConfig(epsilon_a=0.05, n0=10, delta=0.05)
        assert exp.query == QueryConfig(C=3.0)
        assert type(exp.train.l2) is float and type(exp.train.epochs) is int
        assert type(exp.threshold.n0) is int and type(exp.query.C) is float

    def test_top_level_and_sweep_integers_take_integral_numbers(self, tmp_path):
        exp = load_config(write_config(
            tmp_path, trials="2e0", workers=1.0, seed_base="1e1", n_s="2e1", n_b=5.0,
            sweep={"axis": "validation_size", "grid": ["8e1", 100.0, 0], "N_q": "4e1"}))
        assert (exp.trials, exp.workers, exp.seed_base) == (2, 1, 10)
        assert (exp.n_s, exp.n_b) == (20, 5)
        assert (exp.grid, exp.N_q) == ([80, 100, 0], 40)  # 0: no validation data
        assert all(type(v) is int for v in (exp.trials, exp.workers, exp.seed_base,
                                            exp.n_s, exp.n_b, exp.N_q, *exp.grid))

    def test_null_batch_sizes_take_the_defaults(self, tmp_path):
        exp = load_config(write_config(tmp_path, n_s=None, n_b=None))
        assert (exp.n_s, exp.n_b) == (None, None)

    def test_defaults(self, tmp_path):
        exp = load_config(write_config(tmp_path))
        assert exp.threshold == ThresholdConfig(epsilon_a=0.05)
        assert exp.query == QueryConfig()
        assert exp.confidence == AbsMargin()
        assert load_config(write_config(tmp_path, confidence="energy")).confidence \
            == Energy(temperature=1.0)

    def test_unknown_axis(self, tmp_path):
        path = write_config(tmp_path, sweep={"axis": "epochs", "grid": [1]})
        with pytest.raises(ConfigFileError, match="axis"):
            load_config(path)

    def test_cli_exit_code_2_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, typo_key=1)
        assert main(["run", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err


class TestBuildRunConfig:
    def test_budget_fractions(self, tmp_path):
        exp = load_config(write_config(tmp_path))
        cfg = build_run_config(exp, "tbal", N_q=500)
        assert cfg.n_s == 100  # 20% of the budget
        assert cfg.n_b == 25  # 5% of the budget
        cfg = build_run_config(exp, "tbal", N_q=3)
        assert cfg.n_s == 1 and cfg.n_b == 1

    def test_explicit_overrides(self, tmp_path):
        exp = load_config(write_config(tmp_path, n_s=7, n_b=3))
        cfg = build_run_config(exp, "al", N_q=100)
        assert cfg.n_s == 7 and cfg.n_b == 3


SHIPPED = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                         "configs", "*.yaml")))


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_config_builds_every_run(path):
    exp = load_config(path)  # reads no data, so mnist.yaml loads without it
    for method in exp.methods:
        for value in exp.grid:
            N_q = exp.N_q if exp.axis == VALIDATION_SIZE else value
            cfg = build_run_config(exp, method, N_q)
            assert (cfg.method, cfg.N_q, cfg.epsilon_a) == (method, N_q, exp.epsilon_a)


def test_configs_are_shipped():
    assert {os.path.basename(p) for p in SHIPPED} >= {
        "xor.yaml", "unit_ball_budget.yaml", "unit_ball_validation.yaml", "mnist.yaml"}


class TestRunExperiment:
    def read(self, path):
        with open(path) as f:
            return list(csv.reader(f))

    def test_writes_both_csvs(self, tmp_path):
        exp = load_config(write_config(tmp_path, out=str(tmp_path / "res")))
        assert run_experiment(exp) == 0
        runs = self.read(tmp_path / "res" / "runs.csv")
        summary = self.read(tmp_path / "res" / "summary.csv")
        assert runs[0] == ["method", "axis_value", "seed", "err_hat", "cov_hat",
                           "human_labels", "val_labels", "rounds"]
        assert summary[0] == ["method", "axis_value", "err_hat_mean",
                              "err_hat_std", "cov_hat_mean", "cov_hat_std",
                              "err_over_eps_frac", "err_hat_trials",
                              "err_over_eps_upper95"]
        # 2 methods x 2 grid points x 2 trials
        assert len(runs) == 1 + 8
        assert len(summary) == 1 + 4

    def test_summary_consistent_with_runs(self, tmp_path):
        exp = load_config(write_config(tmp_path, out=str(tmp_path / "res")))
        run_experiment(exp)
        runs = self.read(tmp_path / "res" / "runs.csv")[1:]
        summary = self.read(tmp_path / "res" / "summary.csv")[1:]
        for m, g, em, es, cm, cs, _, n_err, _ in summary:
            errs = [float(r[3]) for r in runs if r[0] == m and r[1] == g]
            covs = [float(r[4]) for r in runs if r[0] == m and r[1] == g]
            assert int(n_err) == len(errs)  # every trial labeled something
            assert float(em) == pytest.approx(np.mean(errs), abs=1e-6)
            assert float(es) == pytest.approx(np.std(errs, ddof=1), abs=1e-6)
            assert float(cm) == pytest.approx(np.mean(covs), abs=1e-6)
            assert float(cs) == pytest.approx(np.std(covs, ddof=1), abs=1e-6)

    @pytest.mark.parametrize("overrides", [{}, {"threshold.n0": 201}],
                             ids=["some_over", "tbal_labels_nothing"])
    def test_over_epsilon_fraction_counts_the_runs(self, tmp_path, overrides):
        # n0 above the 200 validation points: TBAL never labels and every
        # err_hat of its runs is nan, which counts as not over
        exp = load_config(write_config(tmp_path, overrides, out=str(tmp_path / "res"),
                                       epsilon_a=0.01))
        run_experiment(exp)
        runs = self.read(tmp_path / "res" / "runs.csv")[1:]
        summary = self.read(tmp_path / "res" / "summary.csv")[1:]
        fracs = {}
        for m, g, em, es, _, _, over, n_err, upper in summary:
            errs = [float(r[3]) for r in runs if r[0] == m and r[1] == g]
            k = sum(e > 0.01 for e in errs)
            assert over == f"{k / len(errs):.6f}"
            assert upper == f"{clopper_pearson_upper(k, len(errs)):.6f}"
            assert int(n_err) == sum(not math.isnan(e) for e in errs)
            fracs[m, g] = float(over)
        if overrides:
            assert all(math.isnan(float(r[3])) for r in runs if r[0] == "tbal")
            assert fracs["tbal", "40"] == fracs["tbal", "80"] == 0.0
            for m, g, em, es, *_, n_err, upper in summary:
                if m == "tbal":  # 0 of 2 trials over: the bound is 1 - 0.05^(1/2)
                    assert (em, es, n_err, upper) == ("nan", "nan", "0", "0.776393")
        assert len(set(fracs.values())) > 1

    def test_a_trial_that_labels_nothing_leaves_the_others_mean(self, tmp_path,
                                                                monkeypatch):
        # one trial's err_hat is undefined; the point's mean and std are
        # those of the trials whose error is defined
        exp = load_config(write_config(tmp_path, out=str(tmp_path / "res"), trials=3,
                                       methods=["tbal"], sweep={"axis": "train_budget",
                                                                "grid": [40]}))
        real = cli.run_single

        def run_single(exp, method, axis_value, trial, shared=None):
            row = real(exp, method, axis_value, trial, shared)
            return dict(row, err_hat=math.nan) if trial == 1 else row

        monkeypatch.setattr(cli, "run_single", run_single)
        assert run_experiment(exp) == 0
        runs = self.read(tmp_path / "res" / "runs.csv")[1:]
        (row,) = self.read(tmp_path / "res" / "summary.csv")[1:]
        errs = [float(r[3]) for r in runs]
        assert sum(map(math.isnan, errs)) == 1
        defined = [e for e in errs if not math.isnan(e)]
        assert float(row[2]) == pytest.approx(np.mean(defined), abs=1e-6)
        assert float(row[3]) == pytest.approx(np.std(defined, ddof=1), abs=1e-6)
        assert row[7] == "2"
        k = sum(e > 0.05 for e in defined)
        assert row[8] == f"{clopper_pearson_upper(k, 3):.6f}"

    def test_rerun_is_byte_identical(self, tmp_path):
        p1 = write_config(tmp_path, out=str(tmp_path / "a"))
        exp = load_config(p1)
        run_experiment(exp)
        exp2 = load_config(p1)
        exp2.out = str(tmp_path / "b")
        run_experiment(exp2)
        for name in ("runs.csv", "summary.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_workers_match_serial(self, tmp_path):
        exp = load_config(write_config(tmp_path, out=str(tmp_path / "s"),
                                       trials=1))
        run_experiment(exp)
        exp2 = load_config(write_config(tmp_path, out=str(tmp_path / "p"),
                                        trials=1, workers=2))
        run_experiment(exp2)
        assert (tmp_path / "s" / "runs.csv").read_bytes() == \
            (tmp_path / "p" / "runs.csv").read_bytes()

    def test_parallel_failures_keep_partial_results(self, tmp_path, capsys):
        # n_s=50 exceeds the budget at grid point 40, so those runs fail; the
        # grid is set after loading, which rejects such a config
        outs = {}
        for name, workers in (("serial", 1), ("parallel", 2)):
            outs[name] = tmp_path / name
            exp = load_config(write_config(tmp_path, out=str(outs[name]), trials=1,
                                           n_s=50, workers=workers,
                                           sweep={"axis": "train_budget", "grid": [80]}))
            exp.grid = [40, 80]
            assert run_experiment(exp) == 1
            assert capsys.readouterr().err.count("run failed") == 2
        runs = self.read(outs["parallel"] / "runs.csv")[1:]
        assert sorted((r[0], r[1]) for r in runs) == [("pl", "80"), ("tbal", "80")]
        summary = self.read(outs["parallel"] / "summary.csv")[1:]
        assert sorted((r[0], r[1]) for r in summary) == [("pl", "80"), ("tbal", "80")]
        for csv_name in ("runs.csv", "summary.csv"):
            assert (outs["serial"] / csv_name).read_bytes() == \
                (outs["parallel"] / csv_name).read_bytes()

    def test_validation_size_axis(self, tmp_path):
        path = write_config(tmp_path, out=str(tmp_path / "v"), methods=["tbal"],
                            sweep={"axis": "validation_size", "grid": [50, 150],
                                   "N_q": 60}, trials=1)
        exp = load_config(path)
        assert run_experiment(exp) == 0
        runs = self.read(tmp_path / "v" / "runs.csv")[1:]
        assert sorted(int(r[6]) for r in runs) == [50, 150]  # val_labels column

    def test_run_single_row_shape(self, tmp_path):
        exp = load_config(write_config(tmp_path))
        row = run_single(exp, "pl", 40, trial=1)
        assert row["method"] == "pl" and row["seed"] == 1
        assert row["human_labels"] == 40
        assert 0 <= row["cov_hat"] <= 1


class TestSharedGroups:
    """A sweep runs the methods of one grid value and trial as a group: one
    dataset build, and one trajectory for each of al/alsc and pl/plsc."""

    read = TestRunExperiment.read

    def sweep(self, tmp_path, name, **top):
        top.setdefault("methods", list(engine.METHODS))
        exp = load_config(write_config(tmp_path, out=str(tmp_path / name), **top))
        return run_experiment(exp), tmp_path / name

    def test_a_pair_fits_as_often_as_one_of_its_runs(self, tmp_path, monkeypatch):
        real_fit = linmod.fit
        fits = {}
        for methods in (["al"], ["al", "alsc"], ["pl"], ["pl", "plsc"]):
            calls = []

            def counting_fit(*args, **kwargs):
                calls.append(1)
                return real_fit(*args, **kwargs)

            monkeypatch.setattr(linmod, "fit", counting_fit)
            assert self.sweep(tmp_path, "-".join(methods), methods=methods)[0] == 0
            fits[tuple(methods)] = len(calls)
        assert fits[("al",)] == fits[("al", "alsc")] > fits[("pl",)] == fits[("pl", "plsc")]

    def test_one_dataset_build_per_grid_value_and_trial(self, tmp_path, monkeypatch):
        builds = []
        real = cli.make_dataset

        def counting(spec, seed):
            builds.append(seed)
            return real(spec, seed)

        monkeypatch.setattr(cli, "make_dataset", counting)
        assert self.sweep(tmp_path, "s")[0] == 0
        assert builds == [0, 1, 0, 1]  # grid [40, 80] x trials 2

    def test_runs_leave_the_group_dataset_unchanged(self, tmp_path):
        exp = load_config(write_config(tmp_path))
        shared = {}
        for method in engine.METHODS:
            run_single(exp, method, 80, 1, shared)
        assert len(shared["trajectories"]) == 3
        pool, val, N_q, seed = shared["inputs"]
        fresh_pool, fresh_val = make_dataset(exp.dataset, seed)
        assert (N_q, seed) == (80, 1)
        assert pool.matrix is val.matrix  # the split copied no features
        assert np.array_equal(pool.matrix, fresh_pool.matrix)
        assert np.array_equal(pool.rows, fresh_pool.rows)
        assert np.array_equal(pool._truth, fresh_pool._truth)
        for name in ("kind", "label", "round"):
            assert np.array_equal(getattr(pool, name), getattr(fresh_pool, name))
        assert np.all(pool.kind == KINDS.index(UNLABELED))
        assert np.array_equal(val.rows, fresh_val.rows)
        assert np.array_equal(val.labels, fresh_val.labels)
        assert val.active.all()

    def test_lone_method_writes_the_rows_of_the_full_sweep(self, tmp_path):
        _, full = self.sweep(tmp_path, "full")
        for method in ("alsc", "plsc", "al"):
            _, lone = self.sweep(tmp_path, method, methods=[method])
            rows = [r for r in self.read(full / "runs.csv") if r[0] == method]
            assert len(rows) == 4
            assert self.read(lone / "runs.csv")[1:] == rows

    def test_workers_match_serial_on_five_methods(self, tmp_path):
        assert self.sweep(tmp_path, "serial")[0] == 0
        assert self.sweep(tmp_path, "parallel", workers=2)[0] == 0
        for name in ("runs.csv", "summary.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "parallel" / name).read_bytes()
        assert len(self.read(tmp_path / "serial" / "runs.csv")) == 1 + 20

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence
    @pytest.mark.parametrize("pair", [("al", "alsc"), ("pl", "plsc")], ids="-".join)
    def test_failing_trajectory_fails_both_runs_of_its_pair(self, tmp_path, capsys, pair):
        # a diverged model has non-finite logits: the margin-random query of
        # the al/alsc trajectory fails in its first round; pl's blanket
        # prediction and plsc's threshold pass fail on its one model
        errs = {}
        for name, workers in (("serial", 1), ("parallel", 2)):
            status, _ = self.sweep(tmp_path, name, methods=list(pair), trials=1,
                                   workers=workers,
                                   train={"epochs": 20, "learning_rate": 1e308})
            assert status == 1
            errs[name] = capsys.readouterr().err.splitlines()
        failed = [line for line in errs["serial"] if line.startswith("run failed")]
        assert failed == [f"run failed for ({m!r}, {g}, 0): non-finite logits"
                          for g in (40, 80) for m in pair]
        assert errs["parallel"] == errs["serial"]
        for name in ("runs.csv", "summary.csv"):
            assert len(self.read(tmp_path / "serial" / name)) == 1  # the header
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "parallel" / name).read_bytes()


class TestPrintSummary:
    def test_table_layout(self, tmp_path, capsys):
        with open(tmp_path / "summary.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["method", "axis_value", "err_hat_mean", "err_hat_std",
                        "cov_hat_mean", "cov_hat_std"])
            w.writerow(["alsc", "500", "0.000123", "0.010000", "0.231849", "nan"])
            w.writerow(["tbal", "1000", "0.006612", "0.002000", "0.978125", "0.1"])
        print_summary(str(tmp_path))
        assert capsys.readouterr().out == (
            "\nmethod   axis  err_mean  err_std  cov_mean  cov_std\n"
            "  alsc    500    0.0001   0.0100    0.2318      nan\n"
            "  tbal   1000    0.0066   0.0020    0.9781   0.1000\n")

    def test_sweep_prints_the_summary_it_wrote(self, tmp_path, capsys):
        exp = load_config(write_config(tmp_path, out=str(tmp_path / "res"), trials=1))
        run_experiment(exp)
        capsys.readouterr()
        print_summary(exp.out)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "" and lines[1].split() == [
            "method", "axis", "err_mean", "err_std", "cov_mean", "cov_std"]
        assert [line.split()[:2] for line in lines[2:]] == [
            ["pl", "40"], ["pl", "80"], ["tbal", "40"], ["tbal", "80"]]

    def test_run_command_prints_the_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, out=str(tmp_path / "res"), trials=1)
        assert main(["run", "--config", path]) == 0
        out = capsys.readouterr().out
        print_summary(str(tmp_path / "res"))
        assert out.endswith(capsys.readouterr().out)
        assert "err_mean" in out


class TestOtherCommands:
    def test_bounds_rademacher(self, capsys):
        assert main(["bounds", "rademacher", "--n", "100", "--d", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(rademacher_vc(100, 2))

    def test_bounds_band(self, capsys):
        assert main(["bounds", "band", "--gamma1", "0.5", "--gamma2", "0.3",
                     "--d", "10"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(band_probability_bound(0.5, 0.3, 10))

    def test_bounds_min_validation(self, capsys):
        assert main(["bounds", "min-validation", "--sigma", "1.0",
                     "--epsilon", "0.1"]) == 0
        assert capsys.readouterr().out.strip() == "1200"

    def test_bounds_domain_error_exit_2(self, capsys):
        assert main(["bounds", "rademacher", "--n", "2", "--d", "10"]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_bounds_error_evaluator(self, capsys):
        rc = main(["bounds", "error", "--d", "5", "--n-v", "1000",
                   "--N-a", "400", "--e-val", "0.01"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) > 0

    def test_bounds_coverage(self, capsys):
        rc = main(["bounds", "coverage", "--t-hat-min", "0.05", "--d", "30",
                   "--k", "5", "--N", "16000"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            -1.6633595263495686, abs=1e-9)

    def test_export_rows_cover_pool(self, tmp_path):
        cfg_path = write_config(tmp_path, methods=["tbal"],
                                sweep={"axis": "train_budget", "grid": [40]})
        out = str(tmp_path / "labels.csv")
        assert main(["export", "--config", cfg_path, "--method", "pl",
                     "--out", out]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["id", "label", "provenance", "round"]
        assert len(rows) == 1 + 500  # one row per pool point
        kinds = {r[2] for r in rows[1:]}
        assert kinds <= {"auto", "human", "unlabeled"}
        n_human = sum(1 for r in rows[1:] if r[2] == "human")
        assert n_human == 40

    def test_export_runs_the_first_grid_point(self, tmp_path):
        # a validation_size sweep: the run uses the budget N_q and the first
        # grid value's subsample of the validation set, as `tbal run` does
        path = write_config(tmp_path, methods=["tbal"],
                            sweep={"axis": "validation_size", "grid": [60, 150],
                                   "N_q": 80})
        out = str(tmp_path / "labels.csv")
        assert main(["export", "--config", path, "--seed", "3", "--out", out]) == 0
        exp = load_config(path)
        pool, val = make_dataset(exp.dataset, 3)
        small = _subsample_validation(val, 60, 3)
        cfg = build_run_config(exp, "tbal", 80)

        def labels(v):
            p = engine.run(pool, v, cfg, 3).pool
            return [[str(i), "" if k == UNLABELED else str(lab), k,
                     str(r) if k == AUTO else ""]
                    for i, (k, lab, r) in enumerate(zip(
                        [KINDS[c] for c in p.kind], p.label.tolist(), p.round.tolist()))]

        rows = list(csv.reader(open(out)))[1:]
        assert rows == labels(small)
        assert rows != labels(val)  # the full validation set labels otherwise

    def test_export_with_features(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "feat.csv")
        assert main(["export", "--config", cfg_path, "--features",
                     "--out", out]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["id", "label", "provenance", "round", "x0", "x1"]
