"""Command-line front end.

Commands:
  solve    ground state of the full problem; writes report.json + minimizer.csv
  aux      ground state of the pure-power auxiliary problem
  bounds   auxiliary + main solve and every level-bound inequality
  verify   the full property-verification suite; writes suite.json

Exit codes: 0 success, 1 configuration error, 2 numerical failure (a non-converged
solve, failed level bound, failed Nehari projection or overflow, each named in one
stderr line with the command, or a failed verification check, named in suite.json).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy as np

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


_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string"}


def _field_type(field: dataclasses.Field) -> type:
    """float, int or str: the type of the field's default (cp's None is a float)."""
    return float if field.default is None else type(field.default)


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
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            kind = _field_type(fields[key])
            if value is None and fields[key].default is None:
                continue
            wrong_type = isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)
            # a float key takes no nan, no inf and no int past the float range
            if wrong_type or (kind is float and not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

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
        """Return (params, aux_result, threshold_or_None).

        The auxiliary solve runs on the configured grid at every cp; its
        final directions start the main solve.  With cp unset the
        admissibility threshold is computed from it and cp = 1.1 x
        threshold; with cp set the threshold is None.
        """
        grid, search = self.grid(), self.search()
        if self.cp is None:  # cp is irrelevant to the auxiliary problem
            return resolve_auto_cp(grid, self.base_params(cp=2.0), search)
        params = self.base_params(self.cp)
        return params, aux_ground_state(grid, params, search), None


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")


def _payload(result) -> dict:
    """Every field of a result dataclass but its arrays: its profile, which
    goes to minimizer.csv, and the aux start directions; the start records
    without their traces."""
    payload = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if field.name == "per_start":
            value = [r.to_dict() for r in value]
        if not isinstance(value, np.ndarray):
            payload[field.name] = value
    return payload


def _emit(command: str, config: RunConfig, params: ModelParams, result: dict, profile=None) -> None:
    """Write report.json (suite.json for verify) and minimizer.csv of the profile, nodal values on the run's grid."""
    out = Path(config.out)
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": config.to_dict(),
        "params": params_to_dict(params),
        "result": result,
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / ("suite.json" if command == "verify" else "report.json"), report)
        if profile is not None:
            write_profile_csv(config.grid(), profile, out / "minimizer.csv")
    except OSError as exc:
        raise ConfigError(f"out cannot be written: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _unconverged(stage: str, result, tol: float) -> list:
    """The failure of a solve whose published start did not converge; none if it converged or did not run."""
    if result is None or result.converged:
        return []
    return [f"the {stage} solve did not converge: relative gradient {result.relative_gradient:.3g} > tol {tol:g}"]


def _exit_code(command: str, failures: list) -> int:
    """0, or 2 after one stderr line naming every failure."""
    if failures:
        print(f"{command}: numerical failure: {'; '.join(failures)}", file=sys.stderr)
    return 2 if failures else 0


def cmd_solve(config: RunConfig) -> int:
    params, aux, threshold = config.resolve()
    result = ground_state(config.grid(), params, config.search(), aux.directions)
    payload = _payload(result)
    failures = _unconverged("main", result, config.tol)
    if threshold is not None:
        payload.update(cp_threshold=threshold, auxiliary_level=aux.m_p)
        # automatic cp rests on the auxiliary level, so its solve is judged too, as in bounds
        failures = _unconverged("aux", aux, config.tol) + failures
    _emit("solve", config, params, payload, result.minimizer)
    return _exit_code("solve", failures)


def cmd_aux(config: RunConfig) -> int:
    params = config.base_params(cp=config.cp if config.cp is not None else 2.0)
    result = aux_ground_state(config.grid(), params, config.search())
    cap, below_cap = aux_pnorm_bound(result, params)
    payload = _payload(result)
    payload.update(pnorm_cap=cap, pnorm_below_cap=below_cap, min_admissible_cp=min_admissible_cp(result, params))
    _emit("aux", config, params, payload, result.w_p)
    return _exit_code("aux", _unconverged("aux", result, config.tol))


def cmd_bounds(config: RunConfig) -> int:
    params, aux, _ = config.resolve()
    result = ground_state(config.grid(), params, config.search(), aux.directions)
    bounds = level_bounds(result.m, aux, params)
    payload = {
        "bounds": bounds.to_dict(),
        "cp_threshold_stated": min_admissible_cp(aux, params),  # at any cp: it does not read cp
        "cp_used": params.cp,
        "m": result.m,
        "m_p": aux.m_p,
        "main_converged": result.converged,
        "aux_converged": aux.converged,
        "all_passed": bounds.all_passed,
    }
    _emit("bounds", config, params, payload, result.minimizer)
    failures = _unconverged("aux", aux, config.tol) + _unconverged("main", result, config.tol)
    if bounds.failed:
        failures.append(f"the bounds check failed: {', '.join(bounds.failed)}")
    return _exit_code("bounds", failures)


def cmd_verify(config: RunConfig) -> int:
    # an explicit cp needs no auxiliary solve
    params, aux, _ = config.resolve() if config.cp is None else (config.base_params(config.cp), None, None)
    suite = run_suite(params, grid=config.grid(), seed=config.seed)
    _emit("verify", config, params, suite.to_dict())
    # automatic cp rests on the auxiliary level, so its solve is judged, as in solve and bounds
    return _exit_code("verify", _unconverged("aux", aux, config.tol)) or (0 if suite.overall else 2)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is a configuration error
        raise ConfigError(message)


@cache  # built on first use, not at import; a parse leaves no state in it
def _build_parser() -> argparse.ArgumentParser:
    """One flag per RunConfig field, typed by its default; flags left out stay None."""
    parser = _Parser(prog="kirchhoff4", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override it")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--auto-cp", action="store_true", help="cp = 1.1 x admissibility threshold (default)")
    for field in dataclasses.fields(RunConfig):
        target = group if field.name == "cp" else parser
        target.add_argument("--" + field.name.replace("_", "-"), type=_field_type(field))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name)
        if value is not None:
            data[field.name] = value
    if args.auto_cp:
        data["cp"] = None
    return RunConfig.from_dict(data)


_COMMANDS = {"solve": cmd_solve, "aux": cmd_aux, "bounds": cmd_bounds, "verify": cmd_verify}


_M_TRIM_THRESHOLD = -1  # glibc mallopt parameters (malloc.h)
_M_MMAP_THRESHOLD = -3


@cache  # the thresholds hold for the rest of the process
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
    try:
        args = _build_parser().parse_args(argv)
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
