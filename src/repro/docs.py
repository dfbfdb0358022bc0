"""``python -m repro.docs`` — generate the engine-knob reference.

``docs/knobs.md`` is not written by hand: this module walks
:class:`~repro.engine.settings.EngineSettings` and
:class:`~repro.engine.settings.TelemetrySettings` — the dataclasses
that *are* the engine's knob surface — and emits one reference table per
class, pulling each knob's environment variable and default from its
field declaration and its description from the class docstring's
``Attributes:`` section.  One source of truth; the doc cannot drift
without the sync check noticing:

* ``python -m repro.docs``                 — (re)write ``docs/knobs.md``;
* ``python -m repro.docs --check``         — exit 1 when the committed
  file differs from what generation produces *right now* (CI runs
  this, as does ``tests/test_docs.py``);
* ``python -m repro.docs --links``         — verify every relative
  markdown link under ``docs/`` and in ``README.md`` resolves to a
  real file.

Generation also asserts completeness: a settings field not declared
with :func:`~repro.engine.settings.knob` has no environment variable
and fails loudly instead of silently missing from the doc.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

from .engine.settings import EngineSettings, TelemetrySettings

#: Marker stamped into the generated file (the sync test greps for it).
GENERATED_MARKER = (
    "<!-- generated by `python -m repro.docs`; do not edit by hand -->"
)

#: Default output location, relative to the repository root.
KNOBS_DOC = "docs/knobs.md"


def attribute_docs(cls) -> dict:
    """Parse a class docstring's ``Attributes:`` section.

    Returns ``{attribute name: single-line description}``; continuation
    lines (indented deeper than the ``name:`` line) are folded in.
    """
    doc = cls.__doc__ or ""
    lines = doc.splitlines()
    try:
        start = next(index for index, line in enumerate(lines)
                     if line.strip() == "Attributes:")
    except StopIteration:
        return {}
    out = {}
    current = None
    entry_indent = None
    for line in lines[start + 1:]:
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        match = re.match(r"(\w+): (.*)", line.strip())
        if match and (entry_indent is None or indent <= entry_indent):
            entry_indent = indent
            current = match.group(1)
            out[current] = match.group(2).strip()
        elif current is not None and indent > (entry_indent or 0):
            out[current] += " " + line.strip()
        else:
            break
    return out


def _format_default(field) -> str:
    value = field.metadata.get("shown") or field.default
    if value is None:
        return "`None`"
    if isinstance(value, bool):
        return "`1`" if value else "`0`"
    return f"`{value}`"


def knob_rows(cls) -> list:
    """One ``(field, env var, default, description)`` row per knob."""
    docs = attribute_docs(cls)
    rows = []
    for field in dataclasses.fields(cls):
        if "env" not in field.metadata:
            raise ValueError(
                f"{cls.__name__}.{field.name} has no environment "
                f"variable — declare it with repro.engine.settings.knob"
            )
        rows.append((field.name, field.metadata["env"],
                     _format_default(field), docs.get(field.name, "")))
    return rows


def _markdown_table(headers: list, rows: list) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        cells = [str(cell).replace("|", "\\|") for cell in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def generate_knobs_markdown() -> str:
    """The full ``docs/knobs.md`` document, and its completeness proof.

    Raises:
        ValueError: when a settings field is not declared as a knob
            (the doc would silently under-document the engine).
    """
    sections = []
    for cls, title, blurb in (
        (EngineSettings, "Engine knobs",
         "Resolved by `EngineSettings.resolve` — explicit argument > "
         "environment variable > default. Every `repro run` flag with "
         "the same name overrides the variable below."),
        (TelemetrySettings, "Telemetry knobs",
         "Resolved by `TelemetrySettings.resolve` — span tracing "
         "(`repro run --trace-out`) and the run manifest's "
         "`telemetry` snapshot; see [docs/observability.md]"
         "(observability.md)."),
    ):
        rows = knob_rows(cls)
        sections.append(
            f"## {title} (`{cls.__module__}.{cls.__name__}`)\n\n"
            f"{blurb}\n\n"
            + _markdown_table(
                ["knob", "environment variable", "default",
                 "description"],
                rows,
            )
        )
    return (
        f"{GENERATED_MARKER}\n\n"
        "# Engine environment knobs\n\n"
        "Every environment variable the engine reads, generated from "
        "the\n`EngineSettings` / `TelemetrySettings` dataclasses in\n"
        "`src/repro/engine/settings.py` (the single resolver all code "
        "paths share).\nRegenerate with `python -m repro.docs`; CI "
        "fails when this file drifts\nfrom the source of truth.\n\n"
        + "\n\n".join(sections)
        + "\n\n"
        "Precedence everywhere: explicit argument > environment "
        "variable > default.\nMalformed values raise a `ValueError` "
        "naming the offending source (the\nkeyword argument or the "
        "variable, verbatim) — see\n"
        "[docs/architecture.md](architecture.md) for where each knob "
        "takes effect.\n"
    )


# ---------------------------------------------------------------------------
# link checking (docs/ + README relative links)
# ---------------------------------------------------------------------------

_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(root) -> list:
    """Every broken relative markdown link under ``docs/`` + README.

    Absolute URLs (``http(s)://``, ``mailto:``) and pure fragment links
    are skipped; a relative target's optional ``#fragment`` is ignored.
    Returns ``(source file, target)`` pairs that do not resolve.
    """
    root = Path(root)
    sources = sorted(root.glob("docs/**/*.md"))
    readme = root / "README.md"
    if readme.exists():
        sources.append(readme)
    broken = []
    for source in sources:
        for target in _LINK_PATTERN.findall(source.read_text()):
            if target.startswith(("http://", "https://", "mailto:",
                                  "#")):
                continue
            path = target.partition("#")[0]
            if not path:
                continue
            if not (source.parent / path).exists():
                broken.append((str(source.relative_to(root)), target))
    return broken


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    """CLI driver: write, ``--check`` or ``--links`` (see module doc)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.docs",
        description="Generate (or verify) docs/knobs.md from the "
                    "EngineSettings/TelemetrySettings "
                    "source of truth.",
    )
    parser.add_argument("--out", default=KNOBS_DOC,
                        help=f"output path (default: {KNOBS_DOC})")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the file differs from what "
                             "generation produces now")
    parser.add_argument("--links", action="store_true",
                        help="check relative markdown links under "
                             "docs/ and in README.md instead of "
                             "generating")
    parser.add_argument("--root", default=".",
                        help="repository root for --links "
                             "(default: cwd)")
    args = parser.parse_args(argv)
    if args.links:
        broken = check_links(args.root)
        for source, target in broken:
            print(f"broken link in {source}: {target}",
                  file=sys.stderr)
        if broken:
            return 1
        print("all relative links resolve", file=sys.stderr)
        return 0
    text = generate_knobs_markdown()
    path = Path(args.out)
    if args.check:
        current = path.read_text() if path.exists() else None
        if current != text:
            print(
                f"{path} is out of date — regenerate with "
                f"`python -m repro.docs`",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is in sync", file=sys.stderr)
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
