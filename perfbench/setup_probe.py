"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

Usage: python3 setup_probe.py CLI-ARGS...   (with the package on PYTHONPATH)

Times ``import kirchhoff4.cli`` (what the console script imports), then
``build_grid`` and ``operator_cache`` for the grid and beta the CLI derives
from CLI-ARGS (e.g. ``bounds --n 400``), and prints them as one JSON object.
"""

import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import kirchhoff4.cli

    t1 = time.perf_counter()
    from kirchhoff4.energy import operator_cache
    from kirchhoff4.radial import build_grid

    cli = kirchhoff4.cli
    config = cli._config_from_args(cli._build_parser().parse_args(sys.argv[1:]))
    grid = build_grid(config.n, config.scheme)
    t2 = time.perf_counter()
    operator_cache(grid, config.beta)
    t3 = time.perf_counter()
    print(json.dumps({
        "module": sys.modules["kirchhoff4"].__file__,
        "import_s": t1 - t0,
        "build_grid_s": t2 - t1,
        "operator_cache_s": t3 - t2,
        "total_s": t3 - t0,
    }))


if __name__ == "__main__":
    main()
