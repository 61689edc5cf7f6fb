"""The package's public names, the README's config schema and the declared
dependencies agree with the code."""

import ast
import dataclasses
import glob
import os
import re
import subprocess
import sys
import textwrap

import pytest

import tbal
from tbal import cli, confidence, data, engine, model, query, threshold
from tbal.cli import load_config

from test_cli import write_config

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")


def schema_block(*blocks):
    """The README's YAML config schema, narrowed to the indented lines of the
    nested ``blocks``, dedented."""
    text = open(README).read()
    schema = text.split("## Config schema (YAML)", 1)[1].split("```")[1]
    for block in blocks:
        (body,) = re.findall(rf"^{block}:.*\n((?:[ ]+.*\n)*)", schema, flags=re.M)
        schema = textwrap.dedent(body)
    return schema


def schema_line(path):
    """The value of ``path`` in the README's YAML config schema: a top-level
    ``key`` or a nested ``block.key``."""
    *blocks, key = path.split(".")
    (value,) = re.findall(rf"^{key}:\s*(.*?)\s*(?:#.*)?$", schema_block(*blocks),
                          flags=re.M)
    return value


def alternatives(path):
    return [v.strip() for v in schema_line(path).split("|")]


def test_every_exported_name_resolves():
    missing = [n for n in tbal.__all__ if not hasattr(tbal, n)]
    assert missing == []
    assert len(set(tbal.__all__)) == len(tbal.__all__)


def test_readme_lists_the_methods():
    value = schema_line("methods")
    assert value.startswith("[") and value.endswith("]")
    assert [m.strip() for m in value[1:-1].split(",")] == list(engine.METHODS)


def test_readme_lists_the_confidence_kinds():
    assert alternatives("confidence") == list(confidence.KINDS)


def test_readme_lists_the_sigma_kinds_a_config_accepts(tmp_path):
    kinds = alternatives("threshold.sigma_kind")
    assert kinds == list(threshold.SIGMA_KINDS)
    assert threshold.ZERO not in kinds  # test-only
    for kind in kinds:
        exp = load_config(write_config(tmp_path, threshold={"sigma_kind": kind}))
        assert exp.threshold.sigma_kind == kind


def test_readme_lists_the_losses_a_config_accepts(tmp_path):
    losses = alternatives("train.loss")
    assert losses == list(model.LOSSES)
    for loss in losses:
        # softmax scores the models of both losses; abs_margin binary ones only
        exp = load_config(write_config(tmp_path, train={"loss": loss}, confidence="softmax"))
        assert exp.train.loss == loss


def test_readme_lists_the_query_strategies(tmp_path):
    strategies = alternatives("query.strategy")
    assert strategies == list(query.STRATEGIES)
    for strategy in strategies:
        exp = load_config(write_config(tmp_path, query={"strategy": strategy}))
        assert exp.query.strategy == strategy


@pytest.mark.parametrize("block, cls, top_level", [
    ("dataset", data.DatasetSpec, set()),
    ("train", model.TrainConfig, set()),
    ("threshold", threshold.ThresholdConfig, {"epsilon_a"}),
    ("query", query.QueryConfig, set()),
])
def test_block_keys_are_the_dataclass_fields(block, cls, top_level):
    """A field no config can set is unreachable: each block's keys in the
    README are its dataclass's fields, bar top-level keys (``cli`` reads the
    keys a block accepts from the same fields)."""
    fields = {f.name for f in dataclasses.fields(cls)} - top_level
    assert set(re.findall(r"^(\w+):", schema_block(block), flags=re.M)) == fields


def test_readme_lists_the_dataset_kinds():
    assert alternatives("dataset.kind") == list(data.KINDS)


def test_readme_cli_usage_lines_parse():
    """Each ``tbal ...`` line of the README's CLI block, optional flags
    included, is a command line the parser accepts."""
    text = open(README).read()
    block = text.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("tbal ")]
    assert len(lines) == 7
    parser = cli.build_parser()
    for line in lines:
        argv = line.replace("[", "").replace("]", "").split()[1:]
        assert parser.parse_args(argv).command == argv[0], line


def test_nested_keys_read_from_their_own_block():
    assert schema_line("dataset.kind").startswith("unit_ball")
    assert schema_line("threshold.delta") == "0.05"
    assert schema_line("train.loss") == "hinge | logistic"


# third-party modules the package imports at module level: the cold start of
# ``import tbal`` loads these and nothing else outside the standard library
MODULE_LEVEL = {"numpy", "yaml"}
DISTRIBUTION = {"yaml": "pyyaml"}  # import name -> name in pyproject.toml


def imports(node, module_level=True):
    """(top-level module name, imported at module level) of each import
    under ``node``; relative imports are ``tbal``'s own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.name.split(".")[0], module_level
        elif isinstance(child, ast.ImportFrom):
            yield ("tbal" if child.level else child.module.split(".")[0]), module_level
        else:  # a function body runs when called, a class body on import
            yield from imports(child, module_level and not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def package_imports():
    found = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tbal", "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        found |= {(name, top, os.path.basename(path)) for name, top in imports(tree)
                  if name not in sys.stdlib_module_names and name != "tbal"}
    return found


def test_every_third_party_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    declared = {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower() for d in deps}
    found = package_imports()
    assert {name for name, _, _ in found} >= MODULE_LEVEL | {"scipy"}
    undeclared = sorted((DISTRIBUTION.get(name, name), where) for name, _, where in found
                        if DISTRIBUTION.get(name, name) not in declared)
    assert undeclared == []


def test_module_level_imports_are_numpy_and_pyyaml_only():
    eager = sorted((name, where) for name, top, where in package_imports()
                   if top and name not in MODULE_LEVEL)
    assert eager == []


def test_cli_import_leaves_the_process_pool_out():
    # a serial sweep never reads it, and every start-up paid for loading it
    code = ("import sys\n"
            "import tbal.cli\n"
            "assert 'concurrent.futures.process' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_a_sweep_loads_no_scipy(tmp_path):
    # an abs_margin and a softmax sweep, summary.csv included, run on NumPy
    # alone: loading scipy.stats took a process from 27 to 99 MB of memory
    configs = []
    for confidence in ("abs_margin", "softmax"):
        (tmp_path / confidence).mkdir()
        configs.append(write_config(tmp_path / confidence, trials=1, confidence=confidence,
                                    out=str(tmp_path / confidence / "res")))
    code = ("import sys\n"
            "from tbal import cli\n"
            f"for path in {configs!r}:\n"
            "    assert cli.run_experiment(cli.load_config(path)) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert loaded == [], loaded\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    for confidence in ("abs_margin", "softmax"):
        assert (tmp_path / confidence / "res" / "summary.csv").exists()


def test_a_sweep_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the README promises the same runs.csv at 1 and 2 BLAS threads: a
    # reduced xor sweep and a reduced unit-ball budget sweep (d = 30)
    code = ("import sys\n"
            "from tbal import cli\n"
            f"xor = cli.load_config({os.path.join(ROOT, 'configs', 'xor.yaml')!r})\n"
            f"ball = cli.load_config({os.path.join(ROOT, 'configs', 'unit_ball_budget.yaml')!r})\n"
            "xor.trials, xor.out = 2, sys.argv[1] + '/xor'\n"
            "ball.trials, ball.grid, ball.out = 2, [500], sys.argv[1] + '/ball'\n"
            "assert ball.dataset.d == 30\n"
            "for exp in (xor, ball):\n"
            "    assert cli.run_experiment(exp) == 0\n")
    procs = {}
    for threads in ("1", "2"):  # read by OpenBLAS when NumPy is imported
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path / threads)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for proc in procs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    for sweep in ("xor", "ball"):
        for name in ("runs.csv", "summary.csv"):
            one, two = ((tmp_path / t / sweep / name).read_bytes() for t in ("1", "2"))
            assert one == two, (sweep, name)
