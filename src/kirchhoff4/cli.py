"""Command-line front end.

Commands:
  solve    ground state of the full problem; writes report.json + minimizer.csv
  aux      ground state of the pure-power auxiliary problem
  bounds   auxiliary + main solve and every level-bound inequality
  verify   the full property-verification suite; writes suite.json

Exit codes: 0 success, 1 configuration error, 2 numerical failure
(non-converged solve, failed verification check, or a failed Nehari
projection or exponential overflow, reported in one line naming the command).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .model import KirchhoffSpec, ModelParams, RangeOverflowError, params_to_dict
from .nehari import (
    ProjectionError,
    SearchConfig,
    aux_ground_state,
    aux_pnorm_bound,
    ground_state,
    level_bounds,
    min_admissible_cp,
    resolve_auto_cp,
)
from .radial import build_grid, write_profile_csv
from .verify import run_suite

__all__ = ["RunConfig", "ConfigError", "main", "console_main"]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """Scalar model parameters, grid and search settings for one run.

    cp = None requests the self-consistent choice 1.1 x the admissibility
    threshold computed from an auxiliary solve.
    """

    beta: float = 0.5
    q: float = 5.0
    p: float = 6.0
    cp: float | None = None
    alpha0: float = 1.0
    delta: float = 0.1
    g0: float = 1.0
    a: float = 1.0
    kirchhoff_kind: str = "affine"
    n: int = 64
    scheme: str = "spectral-even"
    starts: int = 8
    max_iter: int = 300
    tol: float = 1e-6
    seed: int = 1
    out: str = "."

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    # --- validation and resolution ------------------------------------

    def validate(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.q <= 4.0:
            raise ConfigError(f"q must exceed 4, got {self.q}")
        if self.p <= self.q:
            raise ConfigError(f"p must exceed q, got p={self.p}, q={self.q}")
        if self.cp is not None and self.cp <= 1.0:
            raise ConfigError(f"cp must exceed 1, got {self.cp}")
        if self.alpha0 <= 0.0:
            raise ConfigError(f"alpha0 must be positive, got {self.alpha0}")
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.g0 <= 0.0:
            raise ConfigError(f"g0 must be positive, got {self.g0}")
        if self.a < 0.0:
            raise ConfigError(f"a must be nonnegative, got {self.a}")
        if self.kirchhoff_kind not in ("affine", "log-type"):
            raise ConfigError(f"kirchhoff_kind must be 'affine' or 'log-type', got {self.kirchhoff_kind}")
        if self.scheme not in ("spectral-even", "uniform-fd"):
            raise ConfigError(f"scheme must be 'spectral-even' or 'uniform-fd', got {self.scheme}")
        if self.n < 8:
            raise ConfigError(f"n must be at least 8, got {self.n}")
        if self.starts < 1:
            raise ConfigError(f"starts must be positive, got {self.starts}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be positive, got {self.max_iter}")
        if self.tol <= 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")

    def base_params(self, cp: float) -> ModelParams:
        if self.kirchhoff_kind == "affine":
            kirchhoff = KirchhoffSpec.affine(self.g0, self.a)
        else:
            kirchhoff = KirchhoffSpec.log_type()
        return ModelParams.create(
            beta=self.beta, q=self.q, p=self.p, cp=cp,
            alpha0=self.alpha0, delta=self.delta, kirchhoff=kirchhoff,
        )

    def search(self) -> SearchConfig:
        return SearchConfig(starts=self.starts, max_iter=self.max_iter, tol=self.tol, seed=self.seed)

    def grid(self):
        return build_grid(self.n, self.scheme)

    def resolve(self):
        """Return (params, aux_result_or_None, threshold_or_None).

        With cp unset the admissibility threshold is computed from an
        auxiliary solve on the configured grid and cp = 1.1 x threshold;
        the auxiliary minimizer then also seeds the main solve.
        """
        grid = self.grid()
        if self.cp is not None:
            return self.base_params(self.cp), None, None
        seed_params = self.base_params(cp=2.0)  # cp is irrelevant to the auxiliary problem
        params, aux, threshold = resolve_auto_cp(grid, seed_params, self.search())
        return params, aux, threshold


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _start_records(result) -> list:
    return [r.to_dict() for r in result.per_start]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")


def _report_skeleton(command: str, config: RunConfig, params: ModelParams) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": config.to_dict(),
        "params": params_to_dict(params),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(config: RunConfig) -> int:
    params, aux, threshold = config.resolve()
    extras = (aux.w_p,) if aux is not None else ()
    result = ground_state(config.grid(), params, config.search(), extra_starts=extras)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    report = _report_skeleton("solve", config, params)
    report["result"] = {
        "m": result.m,
        "gradient_norm": result.gradient_norm,
        "residual": result.residual,
        "minimizer_norm": result.minimizer_norm,
        "converged": result.converged,
        "starts": result.starts,
        "per_start_energies": result.per_start_energies,
        "per_start": _start_records(result),
        "min_nehari_norm": result.min_nehari_norm,
        "coercivity_margin": result.coercivity_margin,
    }
    if threshold is not None:
        report["result"]["cp_threshold"] = threshold
        report["result"]["auxiliary_level"] = aux.m_p
    _write_json(out / "report.json", report)
    write_profile_csv(result.minimizer, out / "minimizer.csv")
    return 0 if result.converged else 2


def cmd_aux(config: RunConfig) -> int:
    params = config.base_params(cp=config.cp if config.cp is not None else 2.0)
    result = aux_ground_state(config.grid(), params, config.search())
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    cap, below_cap = aux_pnorm_bound(result, params)
    report = _report_skeleton("aux", config, params)
    report["result"] = {
        "m_p": result.m_p,
        "p_norm_p": result.p_norm_p,
        "gradient_norm": result.gradient_norm,
        "converged": result.converged,
        "starts": result.starts,
        "per_start_energies": result.per_start_energies,
        "per_start": _start_records(result),
        "pnorm_cap": cap,
        "pnorm_below_cap": below_cap,
        "min_admissible_cp": min_admissible_cp(result, params),
    }
    _write_json(out / "report.json", report)
    write_profile_csv(result.w_p, out / "minimizer.csv")
    return 0 if result.converged else 2


def cmd_bounds(config: RunConfig) -> int:
    params, aux, threshold = config.resolve()
    grid = config.grid()
    search = config.search()
    if aux is None:  # explicit cp still needs the auxiliary level
        aux = aux_ground_state(grid, config.base_params(cp=params.cp), search)
        threshold = min_admissible_cp(aux, params)
    result = ground_state(grid, params, search, extra_starts=(aux.w_p,))
    bounds = level_bounds(result.m, aux, params)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    report = _report_skeleton("bounds", config, params)
    report["result"] = {
        "bounds": bounds.to_dict(),
        "cp_threshold_stated": threshold,
        "cp_used": params.cp,
        "m": result.m,
        "m_p": aux.m_p,
        "main_converged": result.converged,
        "aux_converged": aux.converged,
        "all_passed": bounds.all_passed,
    }
    _write_json(out / "report.json", report)
    write_profile_csv(result.minimizer, out / "minimizer.csv")
    ok = result.converged and aux.converged and bounds.all_passed
    return 0 if ok else 2


def cmd_verify(config: RunConfig) -> int:
    params, _, _ = config.resolve()
    suite = run_suite(params, grid=config.grid(), seed=config.seed)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    report = _report_skeleton("verify", config, params)
    report["result"] = suite.to_dict()
    _write_json(out / "suite.json", report)
    return 0 if suite.overall else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchhoff4",
        description="Nehari-manifold ground states of a weighted fourth-order "
        "Kirchhoff problem on the unit ball of R^4",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "compute the ground state"),
        ("aux", "compute the pure-power auxiliary ground state"),
        ("bounds", "verify every level-bound inequality"),
        ("verify", "run the property-verification suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--p", type=float, default=None)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--cp", type=float, default=None)
        group.add_argument("--auto-cp", action="store_true", help="cp = 1.1 x admissibility threshold (default)")
        p.add_argument("--alpha0", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--g0", type=float, default=None)
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--scheme", type=str, default=None, choices=("spectral-even", "uniform-fd"))
        p.add_argument("--starts", type=int, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
    return parser


_FLAG_FIELDS = (
    "beta", "q", "p", "cp", "alpha0", "delta", "g0", "a",
    "n", "scheme", "starts", "max_iter", "tol", "seed", "out",
)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for field in _FLAG_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            data[field] = value
    if getattr(args, "auto_cp", False):
        data["cp"] = None
    return RunConfig.from_dict(data)


_COMMANDS = {"solve": cmd_solve, "aux": cmd_aux, "bounds": cmd_bounds, "verify": cmd_verify}


_M_TRIM_THRESHOLD = -1  # glibc mallopt parameters (malloc.h)
_M_MMAP_THRESHOLD = -3


def _retain_freed_memory() -> None:
    """Let the C heap keep freed memory for reuse (glibc; elsewhere a no-op).

    The sweeps free numpy temporaries of 100 KB and more thousands of times
    per run.  Under glibc's default 128 KiB trim and mmap thresholds each
    can go back to the operating system at once, and the next one faults
    its pages in again: about 24k page faults, a tenth of a default
    `verify`, when the heap happens to be laid out that way.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list | None = None) -> int:
    _retain_freed_memory()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        config.validate()
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ProjectionError, RangeOverflowError) as exc:
        print(f"{args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
