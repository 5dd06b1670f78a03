"""Command-line front end for the IDL compiler.

Usage::

    python -m repro.orb.idl <file.idl> [-o OUT]

Prints the Python source :func:`repro.orb.idl.generate_source` would
produce for the given IDL file — the omniidl-style way to inspect what
the compiler emits.  ``-o`` writes to a file instead of stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.orb.idl import generate_source


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orb.idl",
        description="Compile an IDL file and print the generated Python source.",
    )
    parser.add_argument("idl_file", help="IDL source file to compile")
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write generated source here instead of stdout",
    )
    args = parser.parse_args(argv)

    path = Path(args.idl_file)
    try:
        source = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        generated = generate_source(source)
    # analysis: ignore[EXC002]: CLI boundary — any compile failure becomes a diagnostic plus exit code 1
    except Exception as exc:  # noqa: BLE001
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_text(generated)
    else:
        sys.stdout.write(generated)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
