"""The package's public names and the README's config schema agree with the
code."""

import os
import re
import textwrap

import tbal
from tbal import confidence, engine, query, threshold
from tbal.cli import load_config

from test_cli import write_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def schema_line(path):
    """The value of ``path`` in the README's YAML config schema: a top-level
    ``key`` or a nested ``block.key``."""
    text = open(README).read()
    schema = text.split("## Config schema (YAML)", 1)[1].split("```")[1]
    *blocks, key = path.split(".")
    for block in blocks:  # narrow to the block's indented lines, dedented
        (body,) = re.findall(rf"^{block}:.*\n((?:[ ]+.*\n)*)", schema, flags=re.M)
        schema = textwrap.dedent(body)
    (value,) = re.findall(rf"^{key}:\s*(.*?)\s*(?:#.*)?$", schema, flags=re.M)
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


def test_readme_lists_the_query_strategies(tmp_path):
    strategies = alternatives("query.strategy")
    assert strategies == list(query.STRATEGIES)
    for strategy in strategies:
        exp = load_config(write_config(tmp_path, query={"strategy": strategy}))
        assert exp.query.strategy == strategy


def test_nested_keys_read_from_their_own_block():
    assert schema_line("dataset.kind").startswith("unit_ball")
    assert schema_line("threshold.delta") == "0.05"
    assert schema_line("train.loss") == "hinge | logistic"
