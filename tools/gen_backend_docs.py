#!/usr/bin/env python3
"""Auto-generate the backend reference table in docs/backends.md.

The table between the ``BACKEND-TABLE:BEGIN``/``END`` markers is generated
from the live registry (class, execution stages, cost provenance and the
denoise-workload key figures), so the docs can never drift from the code.
CI runs ``--check``, which fails when the committed table is stale.

Run with::

    PYTHONPATH=src python tools/gen_backend_docs.py            # rewrite
    PYTHONPATH=src python tools/gen_backend_docs.py --check    # CI drift gate
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BEGIN = "<!-- BACKEND-TABLE:BEGIN (generated by tools/gen_backend_docs.py; do not edit) -->"
END = "<!-- BACKEND-TABLE:END -->"

_DEFAULT_DOC = Path(__file__).resolve().parent.parent / "docs" / "backends.md"


def generate_table() -> str:
    """The markdown backend reference table, from the live registry."""
    from repro.api import Session, available_backends, backend_class
    from repro.runtime.cache import ResultCache

    cache = ResultCache()
    lines = [
        "| Backend | Class | Stages (denoise / style transfer) | Cost (source) | Denoise @ UHD30 |",
        "|---|---|---|---|---|",
    ]
    for name in available_backends():
        cls = backend_class(name)
        session = Session(backend=name, cache=cache)
        cost = session.cost()
        profile = session.profile("denoise")
        execution = " / ".join(
            str(len(session.compile(workload).stages))
            for workload in ("denoise", "style_transfer")
        )
        # Published sources that report no die area carry area_mm2 == 0.0.
        area = (
            f"{cost.area_mm2:.1f} mm² @ {cost.technology_nm} nm"
            if cost.area_mm2
            else f"n/a @ {cost.technology_nm} nm"
        )
        lines.append(
            f"| `{name}` | `{cls.__name__}` | {execution} "
            f"| {area} ({cost.source}) "
            f"| {profile.fps:.3g} fps, {profile.power_w:.3g} W, {profile.dram_gb_s:.3g} GB/s |"
        )
    return "\n".join(lines)


def render_document(text: str) -> str:
    """``text`` with the marked table section replaced by a fresh table."""
    begin = text.find(BEGIN)
    end = text.find(END)
    if begin < 0 or end < 0 or end < begin:
        raise SystemExit(
            f"markers not found: docs file needs a '{BEGIN}' ... '{END}' section"
        )
    return text[:begin] + BEGIN + "\n" + generate_table() + "\n" + text[end:]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true", help="fail if the table is stale")
    parser.add_argument("--doc", type=Path, default=_DEFAULT_DOC, help="docs file to update")
    args = parser.parse_args(argv)

    current = args.doc.read_text(encoding="utf-8")
    regenerated = render_document(current)
    if args.check:
        if regenerated != current:
            print(
                f"STALE {args.doc}: backend table does not match the registry; "
                "run: PYTHONPATH=src python tools/gen_backend_docs.py"
            )
            return 1
        print(f"{args.doc}: backend table is up to date")
        return 0
    if regenerated != current:
        args.doc.write_text(regenerated, encoding="utf-8")
        print(f"rewrote {args.doc}")
    else:
        print(f"{args.doc}: already up to date")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
