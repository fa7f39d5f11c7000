"""``docs/API.md`` is exactly what ``tools/gen_api_docs.py`` renders, so a
deleted parameter, function or class cannot linger in the reference."""

from __future__ import annotations

import importlib.util
from pathlib import Path


def test_api_reference_is_current():
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_api_docs.py"
    spec = importlib.util.spec_from_file_location("gen_api_docs", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.TARGET.read_text() == generator.render(), (
        "docs/API.md is stale: run PYTHONPATH=src python tools/gen_api_docs.py"
    )
