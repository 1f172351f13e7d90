"""Lint entry point: ``python -m repro.devtools.lint [paths...]``.

Exit codes: 0 when the tree lints clean, 1 when findings survive
suppression, 2 on usage errors.  With no paths, lints the installed
``repro`` package source, so ``python -m repro.devtools.lint`` is always a
valid self-check.  Also reachable as ``repro-vanet lint``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from repro.devtools.engine import lint_paths
from repro.devtools.reporters import REPORTERS


def default_lint_target() -> str:
    """The installed ``repro`` package directory (the default lint tree)."""
    import repro

    return str(Path(repro.__file__).resolve().parent)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the lint entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "Determinism & registry-contract static analysis over repro "
            "source trees (see 'repro-vanet list lint-rules' for the rule "
            "catalogue)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text; 'github' emits CI annotations)",
    )
    parser.add_argument(
        "--select",
        type=str,
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    return parser


def run_lint(
    paths: Sequence[str], output_format: str = "text", select: Optional[str] = None
) -> int:
    """Lint ``paths`` and print the report; returns the process exit code."""
    selected: Optional[List[str]] = None
    if select:
        selected = [part.strip() for part in select.split(",") if part.strip()]
    try:
        report = lint_paths(list(paths) or [default_lint_target()], select=selected)
    except KeyError as exc:
        print(exc.args[0] if exc.args else str(exc))
        return 2
    except OSError as exc:
        print(str(exc))
        return 2
    print(REPORTERS[output_format](report))
    return 0 if report.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.devtools.lint``."""
    args = build_parser().parse_args(argv)
    return run_lint(args.paths, output_format=args.format, select=args.select)


if __name__ == "__main__":
    raise SystemExit(main())
