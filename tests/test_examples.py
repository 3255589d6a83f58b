"""Every example imports: a public name it uses cannot vanish unnoticed.

Each ``examples/*.py`` guards its ``main()`` on ``__name__``, so loading
the module runs its imports and definitions but no simulation.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent
                   / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"_example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
