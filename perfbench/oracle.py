"""Per-op correctness oracle.

An op is one ``kirchhoff4.cli.main(argv)`` call writing into its own
``--out`` directory.  ``check`` reads what it wrote and returns the reasons
the op failed (empty when it passed) together with the facts recorded per
op so that two sets of runs can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Every check the verify suite reports for the spectral grid at the commit
# that introduced this benchmark.  A later suite may add checks; dropping
# or failing one of these fails the op.
VERIFY_CHECKS = (
    "quadrature-even-monomials",
    "d1-constant",
    "laplacian-oracle",
    "laplacian-quadratic",
    "laplacian-constant",
    "wnorm-dome-unweighted",
    "ball-volume",
    "lebesgue-dome",
    "full-sobolev-dome-unweighted",
    "pointwise-bound",
    "norm-equivalence-ratio",
    "bilinearity",
    "hyp-g-increasing",
    "hyp-g0-positive",
    "hyp-g-over-t-nonincreasing",
    "hyp-G-superadditive",
    "hyp-g-affine-dominated",
    "hyp-G-quadratic-dominated",
    "hyp-half-G-minus-quarter-gt-nondecreasing",
    "hyp-half-G-minus-quarter-gt-positive",
    "hyp-superlinearity-theta",
    "hyp-F-positive",
    "hyp-f-power-ratio-increasing-pos",
    "hyp-f-power-ratio-increasing-neg",
    "hyp-f-vanishing-slope-at-zero",
    "hyp-f-dominates-cp-power",
    "hyp-f-cubic-ratio-increasing",
    "hyp-tf-minus-qF-increasing",
    "hyp-f-odd",
    "weak-action-fd",
    "fibering-deriv-fd",
    "fibering-scaling",
    "weak-action-residual-identity",
    "gradient-defining-equations",
    "projection-quartic-oracle",
    "projection-power-oracle",
    "projection-scaling-law",
    "projection-unique-sign-change",
    "projection-fibering-max",
    "projection-scale-below-one",
    "projection-coercivity",
    "projection-residual",
    "adams-critical-sampling",
)


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except (OSError, ValueError) as exc:
        return None, f"cannot read {path.name}: {exc}"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_bounds(rc: int, out: Path, n: int) -> tuple[list, dict]:
    reasons, facts = [], {"m": None, "m_p": None, "cp": None, "digest": None}
    if rc != 0:
        reasons.append(f"exit code {rc}")
    report, err = _load(out / "report.json")
    if err:
        return reasons + [err], facts
    result = report.get("result", {}) if isinstance(report, dict) else {}
    for flag in ("all_passed", "main_converged", "aux_converged"):
        if result.get(flag) is not True:
            reasons.append(f"{flag} is {result.get(flag)!r}")
    m = result.get("m")
    facts.update(m=m, m_p=result.get("m_p"), cp=result.get("cp_used"))
    if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 0.0):
        reasons.append(f"m = {m!r} is not finite and positive")
    try:
        csv = (out / "minimizer.csv").read_bytes()
    except OSError as exc:
        return reasons + [f"cannot read minimizer.csv: {exc}"], facts
    facts["digest"] = _digest(csv)
    rows = len(csv.decode("ascii", "replace").splitlines()) - 1  # header "r,u"
    if rows != n:
        reasons.append(f"minimizer.csv has {rows} rows, grid has {n}")
    return reasons, facts


def check_verify(rc: int, out: Path) -> tuple[list, dict]:
    reasons, facts = [], {"m": None, "m_p": None, "cp": None, "digest": None}
    if rc != 0:
        reasons.append(f"exit code {rc}")
    report, err = _load(out / "suite.json")
    if err:
        return reasons + [err], facts
    params = report.get("params", {}) if isinstance(report, dict) else {}
    facts["cp"] = params.get("Cp")
    suite = report.get("result", {}) if isinstance(report, dict) else {}
    if suite.get("overall") is not True:
        reasons.append(f"overall is {suite.get('overall')!r}")
    checks = suite.get("checks", [])
    status = {c.get("name"): c.get("status") for c in checks if isinstance(c, dict)}
    for name in VERIFY_CHECKS:
        if name not in status:
            reasons.append(f"check {name} missing")
        elif status[name] != "pass":
            reasons.append(f"check {name} is {status[name]!r}")
    facts["digest"] = _digest(json.dumps(checks, sort_keys=True).encode())
    return reasons, facts


def check(command: str, rc: int, out: Path, n: int) -> tuple[list, dict]:
    if command == "bounds":
        return check_bounds(rc, out, n)
    if command == "verify":
        return check_verify(rc, out)
    raise ValueError(f"no oracle for command {command!r}")


# Failures the program reports about itself (exit code 2) that healthy code
# at the commit that introduced this benchmark shows at a low, measured rate:
#   bounds: the auxiliary solve is declared unconverged although its starts
#     agree on m_p (56 of 7191 bounds-default ops, up to 4 in one run; CLI
#     seeds 97, 148, 167, 234 and 255 among 1-300);
#   verify: one tolerance check misses (weak-action-fd at 1.33e-6 > 1e-6 in
#     1 of 58 ops; its value/tolerance ratio is ~0.01 on most seeds, and
#     gradient-defining-equations reaches 0.36 on some).
# An op failing in exactly one of these ways is failed but not wrong; every
# other failure, a failed bound or a missing check included, is wrong.

# a run may hold at most this share of known-defect ops (and always one)
KNOWN_DEFECT_SHARE = 0.1


def is_known_defect(command: str, rc, reasons: list) -> bool:
    """True when a failed op failed only in one of the known ways above."""
    if rc != 2:
        return False
    rest = set(reasons) - {"exit code 2"}
    if command == "bounds":
        return rest == {"aux_converged is False"}
    failing = {r for r in rest if r.startswith("check ") and r.endswith(" is 'fail'")}
    return len(failing) == 1 and rest - failing == {"overall is False"}


def is_wrong(command: str, rc, reasons: list) -> bool:
    """True when an op failed the oracle other than by a known defect."""
    return bool(reasons) and not is_known_defect(command, rc, reasons)


def run_correct(ops: list) -> bool:
    """A run is correct when no op is wrong and known defects stay rare.

    A change that makes a known defect systematic (say, every aux solve
    unconverged) fails the run although each op alone is tolerated.
    """
    if any(op["wrong"] for op in ops):
        return False
    known = sum(op["known_defect"] for op in ops)
    return known <= max(1, KNOWN_DEFECT_SHARE * len(ops))
