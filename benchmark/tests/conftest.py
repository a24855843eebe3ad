"""Make ``import benchmark`` work however pytest was started."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:  # plain ``pytest`` does not add the cwd
    sys.path.insert(0, str(ROOT))
