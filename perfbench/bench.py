"""Workloads, op loop, tracing plan and metrics of the kirchhoff4 benchmark.

One op is one in-process call to ``kirchhoff4.cli.main(argv)``, the function
the ``kirchhoff4`` console script runs, writing into a fresh ``--out``
directory.  Ops run back to back from one closed-loop client.  The package
is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from tracer import Tracer, aggregate, ancestor_masks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# set-up probes per run, spread over it: host speed drifts over seconds to
# minutes, and probes bunched at the start would all see one state
SETUP_REPS = 5
LAST_START_S = 120.0  # no op starts later, so a run ends well inside 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments before --seed/--out; grid and beta follow from them
    op_s: float  # nominal op time (2-vCPU x86-64 VM); sizes an untraced run
    trace_ops: int  # fixed op count of a traced run, so call counts repeat

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def normalized(self) -> bool:
        """Whether times are reported at the nominal host speed (see below)."""
        return self.op_s <= SHORT_OP_S

    def ops_per_run(self, seconds: float) -> int:
        """Op count of an untraced run of about ``seconds`` of op time.

        The count depends on the arguments only, not on how fast the ops
        happen to run, so the same seed always runs the same ops.
        """
        return max(1, round(seconds / self.op_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounds-default", ("bounds",), op_s=0.32, trace_ops=16),
        Workload(
            "bounds-cp2-fd400", ("bounds", "--cp", "2", "--scheme", "uniform-fd", "--n", "400"),
            op_s=3.5, trace_ops=2,
        ),
        Workload("verify-default", ("verify",), op_s=14.0, trace_ops=1),
    )
}


def cli_config(argv):
    """The ``RunConfig`` the CLI itself derives from ``argv`` (defaults included)."""
    from kirchhoff4 import cli

    return cli._config_from_args(cli._build_parser().parse_args(list(argv)))


def op_seeds(workload: str, seed: int):
    """The CLI ``--seed`` of each successive op, derived from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def probe_env() -> dict:
    """This process's environment (BLAS thread caps included), package on the path."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def context() -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads_in_use(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# A shared VM's speed drifts by up to +-20% within seconds to minutes, and
# the wall time of every op and set-up probe drifts with it.  Where ops are
# short, a fixed reference kernel timed before every op samples that speed
# finely enough to follow it, and end-to-end times are reported at the
# nominal speed: wall time x REF_NOMINAL_S / median kernel time of the run.
# The kernel mixes small-array numpy with scalar Python, as the solver's hot
# paths do, and does not call kirchhoff4, so a change to the program cannot
# move it.  Measured over runs of one workload (IQR / median of op_s_p50):
# bounds-default 0.146 as wall time, 0.042 normalized; verify-default, whose
# 10-16 s ops leave only a few samples between them, 0.188 as wall time and
# 0.334 normalized, so workloads with long ops report wall time.
REF_NOMINAL_S = 0.039  # one reference_kernel() call on a 2-vCPU x86-64 VM
SHORT_OP_S = 1.0  # longest nominal op time that is normalized


def reference_kernel() -> float:
    x = np.linspace(0.01, 1.0, 64)
    a = 2.0 * np.eye(64) + 0.01
    acc = 0.0
    for _ in range(2400):
        acc += float(np.sum(np.abs(a @ x) ** 3.5)) * 1e-9
        for j in range(40):
            acc += math.log1p(0.01 * j + 1e-12 * acc) * 1e-6
    return acc


def time_reference() -> float:
    """Wall time of one ``reference_kernel()`` call."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def host_slowdown(refs: list) -> float:
    """How much slower than nominal the host ran, from the run's samples
    (1 when the run took none)."""
    return statistics.median(refs) / REF_NOMINAL_S if refs else 1.0


# ---------------------------------------------------------------------------
# set-up and ops
# ---------------------------------------------------------------------------


def setup_probe(workload: Workload) -> dict:
    """Import + grid + operator cost of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *workload.argv],
        env=probe_env(), capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(probe["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe imported kirchhoff4 from {probe['module']}, not {SRC}")
    return probe


class OpRunner:
    """Runs ops of one workload in this process and checks each one."""

    def __init__(self, workload: Workload):
        import kirchhoff4
        import kirchhoff4.cli

        if not Path(kirchhoff4.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported kirchhoff4 from {kirchhoff4.__file__}, not {SRC}")
        self.workload = workload
        self.main = kirchhoff4.cli.main
        config = cli_config(workload.argv)
        self.n = config.n
        # the grid and its operators are set-up (setup_s); build them first
        energy = sys.modules["kirchhoff4.energy"]
        self.ops_class = type(energy.operator_cache(config.grid(), config.beta))
        OUT.mkdir(exist_ok=True)

    def run(self, op_seed: int) -> dict:
        w = self.workload
        with tempfile.TemporaryDirectory(dir=OUT, prefix="op-") as tmp:
            out = Path(tmp)
            argv = [*w.argv, "--seed", str(op_seed), "--out", str(out)]
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = self.main(argv)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                rc = f"{type(exc).__name__}: {exc}"
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
            if isinstance(rc, str):
                reasons, facts = [f"raised {rc}"], {}
            else:
                reasons, facts = oracle.check(w.command, rc, out, self.n)
            written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        return {
            "seed": op_seed, "s": elapsed, "cpu_s": cpu, "ok": not reasons,
            "known_defect": bool(reasons) and oracle.is_known_defect(w.command, rc, reasons),
            "wrong": oracle.is_wrong(w.command, rc, reasons), "reasons": reasons, "bytes": written, **facts,
        }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(times: list):
    """Highest percentile of ``times`` with at least ten samples beyond it.

    Returns (value, percentile) or None when fewer than 11 samples exist.
    """
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# (span name, module, attribute): module-level functions, wrapped by identity
TRACED_FUNCTIONS = (
    ("radial.build_grid", "kirchhoff4.radial", "build_grid"),
    ("energy.operator_cache", "kirchhoff4.energy", "operator_cache"),
    ("energy.energy", "kirchhoff4.energy", "energy"),
    ("energy.nehari_residual", "kirchhoff4.energy", "nehari_residual"),
    ("nehari.project_scale", "kirchhoff4.nehari", "project_scale"),
    ("nehari.project", "kirchhoff4.nehari", "project"),
    ("nehari.aux_ground_state", "kirchhoff4.nehari", "aux_ground_state"),
    ("nehari.ground_state", "kirchhoff4.nehari", "ground_state"),
    ("verify.run_suite", "kirchhoff4.verify", "run_suite"),
    ("verify.group.grid", "kirchhoff4.verify", "_grid_checks"),
    ("verify.group.profile", "kirchhoff4.verify", "_profile_checks"),
    ("verify.group.hypotheses", "kirchhoff4.verify", "check_hypotheses"),
    ("verify.group.energy", "kirchhoff4.verify", "_energy_checks"),
    ("verify.group.projection", "kirchhoff4.verify", "_projection_checks"),
    ("verify.group.adams", "kirchhoff4.verify", "_adams_check"),
    ("cli.report_write", "kirchhoff4.cli", "_write_json"),
    ("cli.report_write", "kirchhoff4.cli", "write_profile_csv"),
)

# (span name, module, class, attribute): methods, wrapped on the class
TRACED_METHODS = (
    ("model.F", "kirchhoff4.model", "NonlinearitySpec", "F"),
    ("model.f", "kirchhoff4.model", "NonlinearitySpec", "f"),
    ("model.f_prime", "kirchhoff4.model", "NonlinearitySpec", "f_prime"),
    ("model.kirchhoff", "kirchhoff4.model", "KirchhoffSpec", "g"),
    ("model.kirchhoff", "kirchhoff4.model", "KirchhoffSpec", "G"),
    ("model.kirchhoff", "kirchhoff4.model", "KirchhoffSpec", "g_prime"),
    ("energy.fiber_deriv", "kirchhoff4.energy", "FiberMap", "deriv"),
    ("energy.fiber_deriv2", "kirchhoff4.energy", "FiberMap", "deriv2"),
    ("energy.fiber_build", "kirchhoff4.energy", "FiberMap", "full"),
    ("energy.fiber_build", "kirchhoff4.energy", "FiberMap", "pure_power"),
)

LAYERS = tuple(dict.fromkeys([t[0] for t in TRACED_FUNCTIONS] + [t[0] for t in TRACED_METHODS] + ["energy.riesz"]))


class StartLog:
    """Collects the public ``per_start`` records of every solve result."""

    def __init__(self):
        self.main, self.aux = [], []

    def on_main(self, result):
        self.main.extend(getattr(result, "per_start", ()))

    def on_aux(self, result):
        self.aux.extend(getattr(result, "per_start", ()))


def install(tracer: Tracer, ops_class: type, starts: StartLog) -> list:
    """Wrap every traced target; returns the targets this package lacks."""
    hooks = {"nehari.ground_state": starts.on_main, "nehari.aux_ground_state": starts.on_aux}
    missing = []
    for name, module, attr in TRACED_FUNCTIONS:
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        tracer.patch_function(name, fn, hooks.get(name))
    for name, module, cls_name, attr in TRACED_METHODS:
        cls = getattr(sys.modules.get(module), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{module}.{cls_name}.{attr}")
            continue
        tracer.patch_method(name, cls, attr)
    if "riesz" in vars(ops_class):
        tracer.patch_method("energy.riesz", ops_class, "riesz")
    else:
        missing.append(f"{ops_class.__qualname__}.riesz")
    return missing


def layer_metrics(tracer: Tracer, starts: StartLog, ops: int) -> dict:
    """Per-op layer metrics from the spans and start records of ``ops`` ops."""
    spans = tracer.spans()
    names = tracer.names
    agg = aggregate(names, spans["name"], spans["parent"], spans["start"], spans["end"])
    out = {}
    for layer in LAYERS:
        row = agg.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{layer}.calls"] = (row["calls"] / ops, "calls/op")
        out[f"{layer}.s"] = (row["s"] / ops, "s/op")
        out[f"{layer}.self_s"] = (row["self_s"] / ops, "s/op")

    def ids(label):
        return names.index(label) if label in names else -1

    name, parent = spans["name"], spans["parent"]
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    scale_id, deriv_id, gs_id = ids("nehari.project_scale"), ids("energy.fiber_deriv"), ids("nehari.ground_state")
    scale_calls = int(np.sum(name == scale_id)) if scale_id >= 0 else 0
    derivs = int(np.sum((name == deriv_id) & (parent_name == scale_id))) if scale_id >= 0 else 0
    out["nehari.project_scale.derivs_per_call"] = (derivs / scale_calls if scale_calls else 0.0, "ratio")

    descent_iters = sum(r.iterations for r in starts.main)
    in_descent = 0
    if scale_id >= 0 and gs_id >= 0:
        under_gs = (ancestor_masks(name, parent) >> gs_id) & 1 == 1
        in_descent = int(np.sum((name == scale_id) & under_gs))
    out["nehari.descent.iterations"] = (descent_iters / ops, "iter/op")
    out["nehari.descent.starts"] = (len(starts.main) / ops, "starts/op")
    out["nehari.descent.projections_per_iteration"] = (in_descent / descent_iters if descent_iters else 0.0, "ratio")
    converged = sum(bool(r.converged) for r in starts.main)
    out["nehari.starts.converged_ratio"] = (converged / len(starts.main) if starts.main else 0.0, "ratio")
    out["nehari.aux.iterations"] = (sum(r.iterations for r in starts.aux) / ops, "iter/op")
    return out


def end_to_end_metrics(probes: list, ops: list, slowdown: float) -> dict:
    """End-to-end metrics, times at the nominal host speed (wall time divided
    by ``slowdown``); op times count only ops that passed the oracle."""
    passed = [op["s"] for op in ops if op["ok"]] or [op["s"] for op in ops]
    return {
        "setup_s": (statistics.median(p["total_s"] for p in probes) / slowdown, "s"),
        "op_s_p50": (statistics.median(passed) / slowdown, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(tracer: Tracer, starts: StartLog, probes: list, plain: list, traced: list) -> dict:
    """Layer metrics of the traced ops, set-up components, tracing overhead."""
    metrics = layer_metrics(tracer, starts, len(traced))
    for key in ("import_s", "build_grid_s", "operator_cache_s"):
        metrics[f"setup.{key}"] = (statistics.median(p[key] for p in probes), "s")
    metrics["cli.report_write.bytes"] = (statistics.fmean(op["bytes"] for op in traced), "B/op")
    metrics["trace.overhead_ratio"] = (
        statistics.median(op["s"] for op in traced) / statistics.median(op["s"] for op in plain),
        "ratio",
    )
    return metrics


def as_metrics(values: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_untraced(runner: OpRunner, seeds, count: int, t_begin: float) -> tuple:
    """``count`` ops back to back, with ``SETUP_REPS`` set-up probes spread
    evenly between them and, for a normalized workload, a host-speed sample
    before each op and after the last.  Only a host too slow to start an op
    within ``LAST_START_S`` ends the run early.

    Returns (probes, ops, refs).
    """
    probes, ops, refs = [], [], []
    sample = runner.workload.normalized
    while len(ops) < count and (not ops or time.perf_counter() - t_begin < LAST_START_S):
        if len(probes) < SETUP_REPS and len(ops) >= len(probes) * count / SETUP_REPS:
            probes.append(setup_probe(runner.workload))
            continue
        if sample:
            refs.append(time_reference())
        ops.append(runner.run(next(seeds)))
    if sample:
        refs.append(time_reference())
    while len(probes) < SETUP_REPS:
        probes.append(setup_probe(runner.workload))
    return probes, ops, refs


def run_traced(runner: OpRunner, chosen: list, tracer: Tracer) -> tuple:
    """Each chosen op once untraced and once traced, alternating which goes
    first so that warm-up and drift do not bias the overhead ratio."""
    plain, traced = [], []
    for i, op_seed in enumerate(chosen):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_now:
                plain.append(runner.run(op_seed))
                continue
            tracer.reinstall()
            try:
                traced.append(runner.run(op_seed))
            finally:
                tracer.uninstall()
    return plain, traced


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result record."""
    t_begin = time.perf_counter()
    workload = WORKLOADS[workload_name]
    runner = OpRunner(workload)
    seeds = op_seeds(workload.name, seed)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": context(),
    }
    if not trace:
        probes, ops, refs = run_untraced(runner, seeds, workload.ops_per_run(seconds), t_begin)
        slowdown = host_slowdown(refs)
        record["host"] = {"ref_s": refs, "slowdown": slowdown}
        metrics = end_to_end_metrics(probes, ops, slowdown)
        passed = [op["s"] for op in ops if op["ok"]]
        tail_info = tail(passed)
        record["op_s_tail"] = (
            None if tail_info is None
            else {"value": tail_info[0] / slowdown, "percentile": tail_info[1], "samples": len(passed)}
        )
    else:
        probes = [setup_probe(workload) for _ in range(SETUP_REPS)]
        tracer, starts = Tracer(), StartLog()
        record["untraced"] = install(tracer, runner.ops_class, starts)
        tracer.uninstall()
        plain, traced = run_traced(runner, [next(seeds) for _ in range(workload.trace_ops)], tracer)
        tracer.save(OUT / f"spans-{workload.name}.npz")
        ops = plain + traced
        metrics = per_layer_metrics(tracer, starts, probes, plain, traced)
    record["setup"] = probes
    failed = sum(not op["ok"] for op in ops)
    record["fail_ratio"] = {"failed": failed, "attempted": len(ops), "value": failed / len(ops)}
    record["ops"] = ops
    record["result"] = {
        "correct": oracle.run_correct(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": as_metrics(metrics),
    }
    return record
