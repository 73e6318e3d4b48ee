"""Tests of the benchmark's own machinery: tracer arithmetic, oracle,
seed derivation, and agreement of BENCHMARK.json with what a run emits.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bench
import oracle
from tracer import Tracer, aggregate

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- tracer ---------------------------------------------------------------


def test_aggregate_self_time_on_synthetic_tree():
    # A[0,10] -> B[1,4], C[5,9] -> B[6,7]
    names = ["A", "B", "C"]
    name = np.array([0, 1, 2, 1])
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    agg = aggregate(names, name, parent, start, end)
    assert agg["A"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert agg["B"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert agg["C"] == {"calls": 1, "s": 4.0, "self_s": 3.0}


def test_aggregate_counts_recursive_layer_once():
    # A[0,10] -> B[1,9] -> A[2,5]: inclusive A is the outer span only
    agg = aggregate(
        ["A", "B"], np.array([0, 1, 0]), np.array([-1, 0, 1]),
        np.array([0.0, 1.0, 2.0]), np.array([10.0, 9.0, 5.0]),
    )
    assert agg["A"] == {"calls": 2, "s": 10.0, "self_s": 2.0 + 3.0}
    assert agg["B"] == {"calls": 1, "s": 8.0, "self_s": 5.0}


def test_tracer_records_parents_and_restores_bindings():
    import kirchhoff4

    # the package re-exports ``energy`` (the function) over the submodule name
    energy_mod, nehari_mod, verify_mod = (sys.modules[f"kirchhoff4.{m}"] for m in ("energy", "nehari", "verify"))
    assert kirchhoff4.energy is energy_mod.energy
    original = energy_mod.energy
    tracer = Tracer()
    tracer.patch_function("energy.energy", original)
    assert nehari_mod.energy is not original and verify_mod.energy is nehari_mod.energy
    outer = tracer.wrap("outer", lambda f: f())
    inner = tracer.wrap("inner", lambda: 1)
    assert outer(inner) == 1
    tracer.uninstall()
    assert nehari_mod.energy is original and verify_mod.energy is original
    spans = tracer.spans()
    assert [tracer.names[k] for k in spans["name"]] == ["outer", "inner"]
    assert list(spans["parent"]) == [-1, 0]
    assert spans["start"][0] <= spans["start"][1] <= spans["end"][1] <= spans["end"][0]


# --- oracle ---------------------------------------------------------------


@pytest.fixture(scope="module")
def bounds_out(tmp_path_factory):
    import kirchhoff4.cli

    out = tmp_path_factory.mktemp("bounds")
    rc = kirchhoff4.cli.main(["bounds", "--n", "16", "--starts", "2", "--seed", "3", "--out", str(out)])
    return rc, out


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_oracle_accepts_real_bounds_output(bounds_out):
    rc, out = bounds_out
    reasons, facts = oracle.check("bounds", rc, out, 16)
    assert reasons == []
    assert facts["m"] > 0.0 and facts["cp"] > 0.0 and len(facts["digest"]) == 64


def _doctor(out: Path, dst: Path, **result) -> Path:
    doctored = _copy(out, dst)
    report = json.loads((doctored / "report.json").read_text())
    report["result"].update(result)
    (doctored / "report.json").write_text(json.dumps(report))
    return doctored


def test_oracle_rejects_failed_bound_with_exit_2(bounds_out, tmp_path):
    # the CLI exits 2 when a level-bound inequality fails; that op is wrong
    _, out = bounds_out
    doctored = _doctor(out, tmp_path / "doctored", all_passed=False)
    reasons, _ = oracle.check("bounds", 2, doctored, 16)
    assert reasons == ["exit code 2", "all_passed is False"]
    assert oracle.is_wrong("bounds", 2, reasons) and not oracle.is_known_defect("bounds", 2, reasons)
    both = _doctor(out, tmp_path / "both", all_passed=False, aux_converged=False)
    assert oracle.is_wrong("bounds", 2, oracle.check("bounds", 2, both, 16)[0])


def test_oracle_tolerates_only_the_known_aux_defect(bounds_out, tmp_path):
    rc, out = bounds_out
    doctored = _doctor(out, tmp_path / "unconverged", aux_converged=False)
    reasons, _ = oracle.check("bounds", 2, doctored, 16)
    assert reasons == ["exit code 2", "aux_converged is False"]
    assert oracle.is_known_defect("bounds", 2, reasons) and not oracle.is_wrong("bounds", 2, reasons)
    # claiming success while unconverged is a wrong output
    assert oracle.is_wrong("bounds", 0, oracle.check("bounds", 0, doctored, 16)[0])
    assert not oracle.is_wrong("bounds", rc, oracle.check("bounds", rc, out, 16)[0])


def test_run_is_wrong_when_a_known_defect_turns_systematic():
    def ops(known, total):
        return [{"wrong": False, "known_defect": k < known} for k in range(total)]

    assert oracle.run_correct(ops(0, 3)) and oracle.run_correct(ops(1, 2))
    assert not oracle.run_correct(ops(2, 3))
    assert oracle.run_correct(ops(10, 100)) and not oracle.run_correct(ops(11, 100))
    assert not oracle.run_correct([{"wrong": True, "known_defect": False}])


def _suite(tmp_path: Path, checks: list) -> Path:
    tmp_path.mkdir(exist_ok=True)
    payload = {"params": {"Cp": 3.0}, "result": {"overall": True, "checks": checks}}
    (tmp_path / "suite.json").write_text(json.dumps(payload))
    return tmp_path


def test_oracle_verify_requires_every_seed_check(tmp_path):
    full = [{"name": n, "status": "pass", "margin": 1.0, "witness": None} for n in oracle.VERIFY_CHECKS]
    assert oracle.check("verify", 0, _suite(tmp_path / "a", full), 64)[0] == []
    extra = full + [{"name": "new-check", "status": "pass", "margin": 1.0, "witness": None}]
    assert oracle.check("verify", 0, _suite(tmp_path / "b", extra), 64)[0] == []
    dropped = [c for c in full if c["name"] != "projection-residual"]
    reasons, _ = oracle.check("verify", 0, _suite(tmp_path / "c", dropped), 64)
    assert reasons == ["check projection-residual missing"] and oracle.is_wrong("verify", 0, reasons)


def test_oracle_verify_tolerates_one_failed_check_only(tmp_path):
    full = [{"name": n, "status": "pass", "margin": 1.0, "witness": None} for n in oracle.VERIFY_CHECKS]

    def failing(*names):
        checks = [dict(c, status="fail") if c["name"] in names else c for c in full]
        path = _suite(tmp_path / "-".join(names), checks)
        payload = json.loads((path / "suite.json").read_text())
        payload["result"]["overall"] = False
        (path / "suite.json").write_text(json.dumps(payload))
        return oracle.check("verify", 2, path, 64)[0]

    reasons = failing("weak-action-fd")
    assert reasons == ["exit code 2", "overall is False", "check weak-action-fd is 'fail'"]
    assert not oracle.is_wrong("verify", 2, reasons)
    assert oracle.is_known_defect("verify", 2, failing("ball-volume"))
    assert oracle.is_wrong("verify", 0, failing("ball-volume"))
    assert oracle.is_wrong("verify", 2, failing("weak-action-fd", "projection-residual"))
    assert oracle.is_wrong("verify", 2, ["exit code 2", "overall is False", "check ball-volume missing"])


# --- seeds and determinism ------------------------------------------------


def test_same_workload_seed_gives_same_op_seeds_and_digests(tmp_path, monkeypatch):
    seeds_a = bench.op_seeds("bounds-default", 7)
    seeds_b = bench.op_seeds("bounds-default", 7)
    first = [next(seeds_a) for _ in range(3)]
    assert first == [next(seeds_b) for _ in range(3)]
    other = bench.op_seeds("bounds-default", 8)
    assert first != [next(other) for _ in range(3)]

    monkeypatch.setattr(bench, "OUT", tmp_path)
    small = bench.Workload("small", ("bounds", "--n", "16", "--starts", "2"), op_s=0.01, trace_ops=1)
    runner = bench.OpRunner(small)
    assert runner.n == 16
    ops_a = [runner.run(s) for s in first[:2]]
    ops_b = [runner.run(s) for s in first[:2]]
    key = ("m", "m_p", "cp", "digest")
    assert all(op["ok"] for op in ops_a + ops_b)
    assert [[op[k] for k in key] for op in ops_a] == [[op[k] for k in key] for op in ops_b]


def test_setup_probes_are_spread_over_the_run(monkeypatch):
    events = []

    class FakeRunner:
        workload = bench.WORKLOADS["bounds-default"]

        def run(self, op_seed):
            events.append("op")
            return {"seed": op_seed}

    monkeypatch.setattr(bench, "setup_probe", lambda workload: events.append("probe") or {})
    monkeypatch.setattr(bench, "time_reference", lambda: events.append("ref") or 1.0)
    probes, ops, refs = bench.run_untraced(FakeRunner(), iter(range(100)), 10, time.perf_counter())
    assert len(probes) == bench.SETUP_REPS == 5 and [op["seed"] for op in ops] == list(range(10))
    assert events == ["probe", "ref", "op", "ref", "op"] * 5 + ["ref"] and len(refs) == 11

    events.clear()
    FakeRunner.workload = bench.WORKLOADS["verify-default"]
    probes, ops, refs = bench.run_untraced(FakeRunner(), iter(range(100)), 5, time.perf_counter())
    assert events == ["probe", "op"] * 5 and refs == [] and bench.host_slowdown(refs) == 1.0


def test_op_count_depends_on_the_arguments_only():
    bounds, verify = bench.WORKLOADS["bounds-default"], bench.WORKLOADS["verify-default"]
    assert bounds.ops_per_run(50) == round(50 / bounds.op_s) > 100
    assert verify.ops_per_run(1) == 1


def test_op_time_counts_only_passing_ops():
    ops = [{"s": 0.1, "ok": False}, {"s": 1.0, "ok": True}, {"s": 2.0, "ok": True}]
    assert bench.end_to_end_metrics([{"total_s": 1.0}], ops, 1.0)["op_s_p50"][0] == 1.5


def test_times_are_reported_at_nominal_host_speed():
    slowdown = bench.host_slowdown([bench.REF_NOMINAL_S * f for f in (1.1, 1.25, 1.5)])
    assert slowdown == pytest.approx(1.25)
    metrics = bench.end_to_end_metrics([{"total_s": 2.5}], [{"s": 0.5, "ok": True}], slowdown)
    assert metrics["setup_s"][0] == pytest.approx(2.0) and metrics["op_s_p50"][0] == pytest.approx(0.4)
    assert bench.WORKLOADS["bounds-default"].normalized and not bench.WORKLOADS["verify-default"].normalized


def test_tail_percentile_leaves_ten_samples_beyond():
    assert bench.tail(list(range(10))) is None
    value, pct = bench.tail([float(k) for k in range(40)])
    assert value == 29.0 and pct == 75.0


# --- BENCHMARK.json agrees with the emitted metrics -----------------------


def test_spec_end_to_end_matches_untraced_metrics():
    probes = [{"total_s": 1.0}]
    ops = [{"s": 0.5, "ok": True}]
    emitted = {k: u for k, (_, u) in bench.end_to_end_metrics(probes, ops, 1.0).items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_spec_per_layer_matches_traced_metrics():
    probes = [{"import_s": 1.0, "build_grid_s": 0.1, "operator_cache_s": 0.01}]
    ops = [{"s": 0.5, "bytes": 10}]
    metrics = bench.per_layer_metrics(Tracer(), bench.StartLog(), probes, ops, ops)
    emitted = {k: u for k, (_, u) in metrics.items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_spec_respects_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(names) <= 8 and set(names) <= set(bench.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(name_re.fullmatch(m["name"]) and unit_re.fullmatch(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128 and 1 <= SPEC["run_seconds"] <= 60


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# --- compare --------------------------------------------------------------


def _record(workload, p50, op_seed, digest):
    metrics = {"op_s_p50": {"value": p50, "unit": "s"}}
    ops = [{"seed": op_seed, "m": 1.0, "m_p": 2.0, "cp": 3.0, "digest": digest}]
    return {"workload": workload, "trace": 0, "result": {"metrics": metrics}, "ops": ops}


def test_compare_reports_quartiles_verdicts_and_digests():
    import compare

    spec = {"end_to_end": [{"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.1}]}
    base = [_record("w", v, 1, "a") for v in (1.0, 1.02, 0.98, 1.01)]
    same = [_record("w", v, 1, "a") for v in (1.0, 1.01, 0.99, 1.02)]
    slow = [_record("w", v, 1, "b") for v in (1.5, 1.52, 1.48, 1.51)]
    lines = compare.compare(base, same, spec)
    assert lines[2].split()[-2:] == ["no", "ok"]
    assert lines[-1].endswith("ops with the same seed on both sides: 1, bit-identical: 1")
    lines = compare.compare(base, slow, spec)
    assert lines[2].split()[-2:] == ["yes", "REGRESSION"]
    assert lines[-1].endswith("bit-identical: 0")
