"""The package's public names and the README's config schema agree with the
code."""

import os
import re

import tbal
from tbal import confidence, engine

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def schema_line(key):
    """The value of ``key:`` in the README's YAML config schema."""
    text = open(README).read()
    schema = text.split("## Config schema (YAML)", 1)[1].split("```")[1]
    (value,) = re.findall(rf"^{key}:\s*(.*?)\s*(?:#.*)?$", schema, flags=re.M)
    return value


def test_every_exported_name_resolves():
    missing = [n for n in tbal.__all__ if not hasattr(tbal, n)]
    assert missing == []
    assert len(set(tbal.__all__)) == len(tbal.__all__)


def test_readme_lists_the_methods():
    value = schema_line("methods")
    assert value.startswith("[") and value.endswith("]")
    assert [m.strip() for m in value[1:-1].split(",")] == list(engine.METHODS)


def test_readme_lists_the_confidence_kinds():
    kinds = [k.strip() for k in schema_line("confidence").split("|")]
    assert kinds == list(confidence.KINDS)
