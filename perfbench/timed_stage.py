"""Run one edgecert CLI stage and write the wall time of each parallel_map call.

Usage: python3 perfbench/timed_stage.py <wall-file> <edgecert cli arguments...>

Only the parent's parallel_map binding in edgecert.cli is timed; pool workers
run the program unchanged.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    wall_file, cli_argv = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from edgecert import cli

    inner = cli.parallel_map
    walls: list[float] = []

    def timed(fn, items):
        t0 = time.perf_counter()
        try:
            return inner(fn, items)
        finally:
            walls.append(time.perf_counter() - t0)

    cli.parallel_map = timed
    code = cli.main(cli_argv)
    wall_file.write_text(json.dumps(walls) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
