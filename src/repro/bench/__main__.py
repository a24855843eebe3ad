"""CLI: ``python -m repro.bench [e1 e2 e3 e4] [--quick] [--json PATH]``."""

from __future__ import annotations

import sys

from repro.bench.harness import run_cli

main = run_cli

if __name__ == "__main__":
    sys.exit(main())
