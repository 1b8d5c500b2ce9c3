"""The documents name only what exists.

Every source, test, benchmark or example path (``src/repro/core/blocks.py``)
and every backticked ``repro.…`` module, ``repro.module.attr`` or
``repro.module:attr`` in DESIGN.md and README.md must resolve in this
checkout, so deleting code without its prose fails here.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = ["DESIGN.md", "README.md"]

PATH = re.compile(r"\b(?:src|tests|benchmarks|examples)/[\w./-]*?\.py\b")
NAME = re.compile(r"`(repro(?:\.\w+)+(?::\w+(?:\.\w+)*)?)`")


def resolve(name: str) -> object:
    """The object ``name`` denotes; raises if it does not exist.

    ``module:attr.attr`` imports ``module`` and walks the attributes; a
    dotted name imports its longest importable prefix and walks the rest.
    """
    module, _, attrs = name.partition(":")
    parts = module.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            if attrs:
                raise
    rest = parts[cut:] + (attrs.split(".") if attrs else [])
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc):
    text = (ROOT / doc).read_text()
    missing = sorted({p for p in PATH.findall(text) if not (ROOT / p).is_file()})
    assert not missing, f"{doc} names paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_module_and_attribute_resolves(doc):
    text = (ROOT / doc).read_text()
    unresolved = []
    for name in sorted(set(NAME.findall(text))):
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{name} ({type(exc).__name__}: {exc})")
    assert not unresolved, f"{doc} names what does not exist: {unresolved}"


def test_the_check_sees_a_name_that_is_gone():
    with pytest.raises(ImportError):
        resolve("repro.engine.shards.worker:open_shard")
    with pytest.raises(AttributeError):
        resolve("repro.engine.shards.ShardWorkerEngine")
    assert resolve("repro.engine.run_units") is not None
    assert resolve("repro.core.controller:RunSession.process") is not None
