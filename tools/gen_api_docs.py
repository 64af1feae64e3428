#!/usr/bin/env python
"""Generate docs/API.md — a public-API reference from the docstrings.

Walks the package, lists every public module with its one-line summary and
every public class/function with signature and first docstring paragraph.
Run after API changes:  PYTHONPATH=src python tools/gen_api_docs.py
(tier-1 fails while docs/API.md differs from :func:`render`).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def document_module(name: str) -> list[str]:
    mod = importlib.import_module(name)
    lines = [f"### `{name}`", "", first_paragraph(mod.__doc__), ""]
    members = []
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # skip re-exports
        if inspect.isclass(obj) or inspect.isfunction(obj):
            members.append((attr, obj))
    for attr, obj in members:
        kind = "class" if inspect.isclass(obj) else "def"
        lines.append(f"- **`{kind} {attr}{signature_of(obj)}`** — {first_paragraph(obj.__doc__)}")
    if members:
        lines.append("")
    return lines


#: The generated reference: docs/API.md under the repository root.
API_DOC = Path(__file__).parent.parent / "docs" / "API.md"


def render() -> str:
    """The full text of docs/API.md for the package as imported."""
    out = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py`; regenerate after API changes.",
        "",
        "Every public module declares an explicit `__all__` and the experiment",
        "drivers document the figure/table they reproduce — both enforced by",
        "`repro-lint` (see [STATIC_ANALYSIS.md](STATIC_ANALYSIS.md)).",
        "",
    ]
    for info in sorted(pkgutil.walk_packages(repro.__path__, prefix="repro."), key=lambda i: i.name):
        if info.name.endswith("__main__") or info.ispkg:
            continue
        out.extend(document_module(info.name))
    return "\n".join(out) + "\n"


def main() -> None:
    text = render()
    API_DOC.write_text(text)
    print(f"wrote {API_DOC} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
