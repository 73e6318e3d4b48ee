"""The public surface is what the program runs: every callable the package
exports has code that one of the CLI commands calls, but for a named few.

The commands run in a fresh interpreter, where no cache of the package
(build_grid's grids, say) holds a result that spares a run the code behind
it; `python tests/test_reachability.py OUT` prints the unreached names.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import kirchhoff4 as k4

# exported but reached by no command, each for a stated reason
EXEMPT = {
    "energy": "the benchmark's tracer test pins it",
    "EnergyBreakdown": "the benchmark's tracer test pins it, as the result of energy",
    "default_params": "the reference parameter set of the tests",
    "log_weight": "the paper's weight in scalar form",
    "read_profile_csv": "reads minimizer.csv back",
    "random_clamped_profile": "draws from a caller's own generator; the commands draw stacks of its profiles",
    "RangeOverflowError": "an exception class: raised only on failure",
    "ProjectionError": "an exception class: raised only on failure",
}

RUNS = (["bounds"], ["solve", "--cp", "2"], ["aux"], ["verify"])


def _codes(obj) -> set:
    """The code objects of a function, or of every function a class defines."""
    if not inspect.isclass(obj):
        return {inspect.unwrap(obj).__code__}
    codes = set()
    for attr in vars(obj).values():
        func = getattr(attr, "func", getattr(attr, "fget", getattr(attr, "__func__", attr)))
        if inspect.isfunction(func):
            codes.add(func.__code__)
    return codes


def unreached(out: Path) -> list:
    """The package's public functions and classes none of whose code the runs call."""
    import kirchhoff4.cli as cli

    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [cli.main([*argv, "--n", "16", "--starts", "2", "--out", str(out / argv[0])]) for argv in RUNS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(RUNS), codes
    exported = {
        name: obj
        for name, obj in vars(k4).items()
        if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", "").startswith("kirchhoff4")
    }
    return sorted(name for name, obj in exported.items() if not _codes(obj) & called)


def test_every_export_is_reached_by_a_command(tmp_path):
    env = dict(os.environ)
    src = str(Path(k4.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(EXEMPT)


if __name__ == "__main__":
    print(json.dumps(unreached(Path(sys.argv[1]))))
