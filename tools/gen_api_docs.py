"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage's ``__all__``, collects signatures and
first docstring lines, and writes a compact API reference.  Re-run
after changing any public export (``tests/test_api_docs.py`` fails
until the file matches):

    PYTHONPATH=src python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.core",
    "repro.corpus",
    "repro.index",
    "repro.tokenizer",
    "repro.lm",
    "repro.baselines",
    "repro.memorization",
    "repro.dedup",
    "repro.query",
    "repro.service",
]

# Classes whose key methods deserve their own bullets (facades and
# entry points; most classes are summarized by their docstring alone).
METHOD_DOCS = {
    "NearDupEngine": ["search", "search_batch", "search_batch_raw"],
    "HashFamily": ["sketch", "sketch_many"],
    "NearDuplicateSearcher": ["search", "plan", "search_many", "search_thetas"],
    "BatchQueryExecutor": ["execute", "execute_thetas"],
    "ServiceClient": ["search", "batch", "health", "stats"],
    "MicroBatcher": ["submit", "submit_batch"],
    "SearchService": ["start", "shutdown"],
    "RouterService": ["start", "shutdown"],
    "AsyncServiceClient": ["request", "health", "stats", "close"],
    "ShardMap": ["locate", "save", "load"],
    "ShardedSearcher": ["search"],
    "PreforkServer": ["start", "stop", "wait_ready", "run_forever"],
    "StatsSlots": ["stats", "cluster"],
    "CachedIndexReader": ["load_list", "stats"],
    "ResultCache": ["lookup", "store", "stats"],
    "CachingSearcher": ["search"],
}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].rstrip(".")


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe(name: str, obj) -> list[str]:
    if inspect.isclass(obj):
        line = f"- **`{name}`** (class)"
    elif callable(obj):
        line = f"- **`{name}{signature_of(obj)}`**"
    else:
        # A constant's docstring is its type's (``int``, a numpy dtype
        # class), which says nothing about it and varies by version.
        return [f"- **`{name}`** (constant)"]
    summary = first_line(obj)
    if summary:
        line += f" — {summary}"
    lines = [line]
    for method_name in METHOD_DOCS.get(name, []):
        method = getattr(obj, method_name)
        entry = f"  - `.{method_name}{signature_of(method)}`"
        summary = first_line(method)
        if summary:
            entry += f" — {summary}"
        lines.append(entry)
    return lines


#: The generated reference, relative to the repository root.
TARGET = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def render() -> str:
    """The full text of ``docs/API.md`` for the package as imported."""
    out = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py`; edit that script,",
        "not this file.  One bullet per public export (`__all__`) with",
        "its signature and docstring summary.",
        "",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        exports = getattr(module, "__all__", [])
        if not exports:
            continue
        out.append(f"## `{package_name}`")
        summary = first_line(module)
        if summary:
            out.append("")
            out.append(summary + ".")
        out.append("")
        for name in exports:
            if name == "__version__":
                continue
            obj = getattr(module, name)
            out.extend(describe(name, obj))
        out.append("")
    return "\n".join(out) + "\n"


def main() -> None:
    text = render()
    TARGET.write_text(text)
    print(f"wrote {TARGET} ({text.count(chr(10))} lines)")


if __name__ == "__main__":
    main()
