"""``python -m repro`` — see :mod:`repro.cli` and README.md §"The command line"."""

from __future__ import annotations

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
