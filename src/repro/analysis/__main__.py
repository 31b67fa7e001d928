"""``python -m repro.analysis [check] ...`` — the whole-tree engine:
atomicity, lifecycle, layering and determinism passes, SARIF output,
baseline workflow (:mod:`repro.analysis.engine.check`).  The ``check``
subcommand name is optional.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.analysis.engine.check import main as check_main


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "check":
        args.pop(0)
    return check_main(args)


if __name__ == "__main__":
    sys.exit(main())
