import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kirchhoff4 as k4
import kirchhoff4.cli as cli


SMALL = ["--n", "32", "--starts", "2", "--max-iter", "80"]


def _load(path):
    return json.loads(path.read_text())


def test_run_config_roundtrip():
    cfg = cli.RunConfig(beta=0.4, q=4.5, p=7.0, cp=3.0, n=48, seed=12, out="/tmp/x")
    again = cli.RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_run_config_rejects_unknown_keys():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_dict({"betta": 0.5})


@pytest.mark.parametrize(
    "overrides,needle",
    [
        ({"q": 4.0}, "q"),
        ({"q": 6.0, "p": 5.0}, "p"),
        ({"beta": 1.2}, "beta"),
        ({"cp": 0.5}, "cp"),
        ({"delta": 0.0}, "delta"),
        ({"alpha0": -1.0}, "alpha0"),
        ({"scheme": "uniform"}, "scheme"),
        ({"n": 4}, "n"),
        ({"g0": 0.0}, "g0"),
        ({"a": -1.0}, "a"),
        ({"kirchhoff_kind": "cubic"}, "kirchhoff_kind"),
        ({"starts": 0}, "starts"),
        ({"max_iter": 0}, "max_iter"),
        ({"tol": 0.0}, "tol"),
        ({"seed": -1}, "seed"),
    ],
)
def test_validation_names_offending_key(overrides, needle):
    cfg = dataclasses.replace(cli.RunConfig(), **overrides)
    with pytest.raises(cli.ConfigError) as err:
        cfg.validate()
    assert str(err.value).split()[0] == needle  # the message opens with the key


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["solve", "--n", "abc"], "--n"),
        (["solve", "--scheme", "foo"], "scheme"),
        (["solve", "--bogus", "1"], "--bogus"),
        (["solve", "--cp", "2", "--auto-cp"], "--auto-cp"),
        ([], "command"),
        (["aux", "--q", "nan"], "q must be a finite number"),
        # the seed draws the start directions: numpy takes no negative one
        (["aux", "--seed", "-1"], "seed must be nonnegative"),
    ],
)
def test_malformed_command_line_is_config_error(tmp_path, capsys, argv, needle):
    rc = cli.main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    assert needle in err and "Traceback" not in err


@pytest.mark.parametrize(
    "data,key",
    [({"n": "64"}, "n"), ({"beta": None}, "beta"), ({"n": 16.0}, "n"), ({"starts": True}, "starts"),
     ({"tol": "1e-6"}, "tol"), ({"cp": float("inf")}, "cp"),
     # an int past the float range is not a finite number
     ({"p": 10**400}, "p"), ({"a": 10**400}, "a")],
)
def test_malformed_config_value_is_config_error(tmp_path, capsys, data, key):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(data))
    rc = cli.main(["aux", "--config", str(cfg_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"configuration error: {key} ") and err.count("\n") == 1, err


def test_config_types_accepted():
    # float keys take any JSON number, cp also null; ints and strings as such
    cfg = cli.RunConfig.from_dict({"beta": 1, "tol": 1e-7, "cp": None, "n": 16, "scheme": "uniform-fd"})
    assert (cfg.beta, cfg.tol, cfg.cp, cfg.n, cfg.scheme) == (1, 1e-7, None, 16, "uniform-fd")
    assert cli.RunConfig.from_dict({"cp": 3.0}).cp == 3.0


def test_every_config_key_is_a_flag():
    parser = cli._build_parser()
    flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help", "--config", "--auto-cp"}
    assert flags == {"--" + f.name.replace("_", "-") for f in dataclasses.fields(cli.RunConfig)}
    config = cli._config_from_args(parser.parse_args(["aux", "--kirchhoff-kind", "log-type", "--max-iter", "7"]))
    assert (config.kirchhoff_kind, config.max_iter) == ("log-type", 7)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    # one parser serves every main() of a process; no call leaves a flag,
    # a config file or an error behind for the next
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["solve", *SMALL, "--cp", "2", "--out", str(tmp_path / "cp2")]) == 0
    assert cli.main(["solve", *SMALL, "--out", str(tmp_path / "auto")]) == 0
    assert _load(tmp_path / "cp2" / "report.json")["config"]["cp"] == 2.0
    assert _load(tmp_path / "auto" / "report.json")["config"]["cp"] is None
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n": 16, "starts": 1, "seed": 9}))
    assert cli.main(["aux", "--config", str(cfg_path), "--out", str(tmp_path / "file")]) == 0
    assert cli.main(["aux", *SMALL, "--out", str(tmp_path / "flags")]) == 0
    config = _load(tmp_path / "flags" / "report.json")["config"]
    assert (config["n"], config["starts"], config["seed"]) == (32, 2, 1)
    capsys.readouterr()
    for argv, needle in ((["solve", "--auto-cp", "--cp", "2"], "--auto-cp"), (["solve", "--n", "abc"], "--n")):
        assert cli.main([*argv, "--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1 and needle in err, err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert cli.main(["aux", "--n", "16", "--starts", "1", "--out", str(tmp_path / "after")]) == 0


def test_report_keys_are_result_fields(tmp_path):
    # the solve and aux payloads are their result dataclasses minus the
    # profile and the aux start directions
    assert cli.main(["solve", *SMALL, "--out", str(tmp_path / "solve")]) == 0
    assert cli.main(["aux", *SMALL, "--out", str(tmp_path / "aux")]) == 0
    solve = _load(tmp_path / "solve" / "report.json")["result"]
    aux = _load(tmp_path / "aux" / "report.json")["result"]
    fields = {f.name for f in dataclasses.fields(k4.GroundStateResult)} - {"minimizer"}
    assert set(solve) == fields | {"cp_threshold", "auxiliary_level"}
    fields = {f.name for f in dataclasses.fields(k4.AuxResult)} - {"w_p", "directions"}
    assert set(aux) == fields | {"pnorm_cap", "pnorm_below_cap", "min_admissible_cp"}
    assert set(solve["per_start"][0]) == {f.name for f in dataclasses.fields(k4.nehari.StartRecord)} - {"trace"}
    # each start says why its descent stopped
    assert {r["stop_reason"] for r in solve["per_start"]} <= {"converged", "line-search-stalled", "max-iter"}
    assert {r["stop_reason"] for r in aux["per_start"]} <= {"moment-floor", "max-iter"}


def test_one_admissibility_threshold(tmp_path):
    # aux reports the threshold that auto cp multiplies by 1.1, and bounds
    # states the same threshold at an explicit cp
    runs = {"aux": ["aux"], "auto": ["bounds"], "explicit": ["bounds", "--cp", "1e77"]}
    rep = {}
    for name, argv in runs.items():
        assert cli.main([*argv, *SMALL, "--seed", "2", "--out", str(tmp_path / name)]) == 0
        rep[name] = _load(tmp_path / name / "report.json")["result"]
    assert 1.1 * rep["aux"]["min_admissible_cp"] == rep["auto"]["cp_used"]
    assert rep["explicit"]["cp_threshold_stated"] == rep["auto"]["cp_threshold_stated"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = cli.main(["solve", "--q", "4", "--out", str(tmp_path)])
    assert rc == 1
    assert "q must exceed 4" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    # python -m kirchhoff4 runs the console script's entry point
    env = dict(os.environ)
    src = str(Path(k4.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kirchhoff4", "solve", "--q", "4", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "configuration error: q must exceed 4, got 4.0\n"


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI loads no scipy
    # module, and with scipy made unimportable both commands still run
    env = dict(os.environ)
    src = str(Path(k4.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import kirchhoff4.cli as cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "sys.modules['scipy'] = None\n"
        f"print(cli.main(['bounds', '--n', '16', '--starts', '2', '--out', {str(tmp_path / 'bounds')!r}]))\n"
        f"print(cli.main(['verify', '--n', '16', '--out', {str(tmp_path / 'verify')!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["[]", "0", "0"], proc.stdout


def test_cli_import_loads_no_numpy_random():
    # the random draws import numpy.random (10-18 ms) on their first call
    # and build their generators there: importing the CLI does neither; and
    # no module imports numpy.polynomial
    env = dict(os.environ)
    src = str(Path(k4.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys\nimport kirchhoff4.cli\nprint('numpy.random' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


def test_solve_writes_report_and_profile(tmp_path):
    rc = cli.main(["solve", *SMALL, "--out", str(tmp_path)])
    assert rc == 0
    report = _load(tmp_path / "report.json")
    assert report["command"] == "solve"
    assert report["result"]["m"] > 0
    assert report["result"]["converged"] is True
    assert set(report["params"]) == {
        "beta", "q", "p", "Cp", "alpha0", "delta",
        "kirchhoff.kind", "kirchhoff.g0", "kirchhoff.a",
    }
    grid = k4.build_grid(32, "spectral-even")
    profile = k4.read_profile_csv(grid, tmp_path / "minimizer.csv")
    assert np.all(np.isfinite(profile))


def test_solve_deterministic_reports(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["solve", *SMALL, "--seed", "5", "--out", str(out)]) == 0
    rep_a = _load(out / "report.json")
    csv_a = (out / "minimizer.csv").read_bytes()
    assert cli.main(["solve", *SMALL, "--seed", "5", "--out", str(out)]) == 0
    rep_b = _load(out / "report.json")
    rep_a.pop("timestamp")
    rep_b.pop("timestamp")
    assert rep_a == rep_b
    assert csv_a == (out / "minimizer.csv").read_bytes()


def test_solve_explicit_cp(tmp_path):
    rc = cli.main(["solve", *SMALL, "--cp", "2.0", "--out", str(tmp_path)])
    assert rc == 0
    report = _load(tmp_path / "report.json")
    assert report["params"]["Cp"] == 2.0
    assert "cp_threshold" not in report["result"]


def test_aux_command(tmp_path):
    rc = cli.main(["aux", *SMALL, "--out", str(tmp_path)])
    assert rc == 0
    report = _load(tmp_path / "report.json")
    assert report["result"]["m_p"] > 0
    assert report["result"]["pnorm_below_cap"] is True
    assert report["result"]["min_admissible_cp"] >= 1.0
    # the published level is the energy of one of the starts
    per_start = report["result"]["per_start"]
    assert any(s["energy"] == report["result"]["m_p"] for s in per_start)


def test_unwritable_out_is_config_error(tmp_path, capsys):
    # out lies under a regular file: the outputs cannot be written once the
    # computation is done, and the run ends with one line naming out
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = cli.main(["aux", "--n", "16", "--starts", "2", "--out", str(blocker / "run")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("configuration error: out ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_aux_rejects_p_below_4(tmp_path, capsys):
    rc = cli.main(["aux", "--q", "2.5", "--p", "3.5", "--out", str(tmp_path)])
    assert rc == 1
    msg = capsys.readouterr().err
    assert "q" in msg or "p" in msg


def test_numerical_failure_exit_code(tmp_path, capsys):
    # q, p just above 4: the fibering power terms overflow while the
    # auxiliary projection brackets its root
    rc = cli.main(["bounds", "--q", "4.0001", "--p", "4.0002", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("bounds: numerical failure:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["aux", "bounds", "verify"])
@pytest.mark.parametrize("flag, value", [("--g0", "1e-300"), ("--alpha0", "1e300"), ("--delta", "1e300")])
def test_threshold_overflow_is_numerical_failure(tmp_path, capsys, command, flag, value):
    # valid configurations whose admissibility threshold for cp overflows
    # (g0^2 underflows to 0, or a power of alpha0 + delta overflows)
    rc = cli.main([command, flag, value, "--n", "16", "--starts", "2", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: numerical failure:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bounds_command(tmp_path):
    rc = cli.main(["bounds", *SMALL, "--out", str(tmp_path)])
    assert rc == 0
    report = _load(tmp_path / "report.json")
    bounds = report["result"]["bounds"]
    assert bounds["aux_pnorm_ok"] is True
    assert bounds["cp_above_threshold"] is True
    assert bounds["level_below_aux_cap"] is True
    assert bounds["level_below_closed_form"] is True
    assert report["result"]["all_passed"] is True
    assert report["result"]["cp_used"] > report["result"]["cp_threshold_stated"]


@pytest.mark.parametrize("seed", [255, 359])
def test_bounds_aux_converged_regression(tmp_path, seed):
    # the aux start's gradient once landed above a rounding-noise floor by chance
    rc = cli.main(["bounds", "--seed", str(seed), "--out", str(tmp_path)])
    assert rc == 0
    report = _load(tmp_path / "report.json")
    assert report["result"]["aux_converged"] is True
    assert report["result"]["main_converged"] is True


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n": 32, "starts": 2, "max_iter": 80, "seed": 3, "beta": 0.5}))
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(cfg_path), "--seed", "4", "--out", str(out)])
    assert rc == 0
    report = _load(out / "report.json")
    assert report["config"]["seed"] == 4  # flag wins
    assert report["config"]["n"] == 32


def test_verify_command_small(tmp_path):
    rc = cli.main(["verify", *SMALL, "--out", str(tmp_path)])
    assert rc == 0
    report = _load(tmp_path / "suite.json")
    assert report["result"]["overall"] is True
    names = {c["name"] for c in report["result"]["checks"]}
    assert "adams-critical-sampling" in names
    assert any(n.startswith("hyp-") for n in names)


def test_verify_judges_the_aux_solve_behind_auto_cp(tmp_path, capsys):
    # automatic cp rests on the auxiliary level, so a starved aux solve fails
    # verify in one stderr line, as in solve and bounds, although every check passes
    rc = cli.main(["verify", "--n", "32", "--max-iter", "5", "--out", str(tmp_path)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("verify: numerical failure: the aux solve did not converge"), lines
    assert _load(tmp_path / "suite.json")["result"]["overall"] is True


def test_verify_explicit_cp_runs_no_aux_solve(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify --cp ran an aux solve")

    monkeypatch.setattr(cli, "aux_ground_state", refuse)
    monkeypatch.setattr(k4.nehari, "aux_ground_state", refuse)
    assert cli.main(["verify", "--cp", "2", "--n", "16", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("cp", [[], ["--cp", "2"]])
def test_bounds_main_starts_continue_the_aux_starts(tmp_path, monkeypatch, cp):
    # at either cp the main descent starts from the aux starts' final unit
    # directions, one row per start, and a start follows the same path in
    # a stack of 8 as alone: start 0 of --starts 8 is that of --starts 1
    seen, auxes, real_resolve = [], [], cli.RunConfig.resolve

    def resolve(config):
        resolved = real_resolve(config)
        auxes.append(resolved[1])
        return resolved

    def spy(grid, params, search, starts):
        result = k4.ground_state(grid, params, search, starts)
        seen.append((starts, result))
        return result

    monkeypatch.setattr(cli.RunConfig, "resolve", resolve)
    monkeypatch.setattr(cli, "ground_state", spy)
    for starts in ("8", "1"):
        assert cli.main(["bounds", *cp, "--starts", starts, "--out", str(tmp_path / starts)]) == 0
    assert all(starts is aux.directions for (starts, _), aux in zip(seen, auxes))
    (wide_starts, wide), (one_starts, one) = seen
    assert wide_starts.shape == (8, 64) and len(wide.per_start) == 8 and len(one.per_start) == 1
    assert np.array_equal(wide_starts[:1], one_starts)
    assert wide.per_start[0] == one.per_start[0]


def test_verify_detects_mutated_laplacian(tmp_path, monkeypatch):
    import dataclasses as dc

    real_build = cli.build_grid

    def sabotaged(n, scheme="spectral-even"):
        grid = real_build(n, scheme)
        return dc.replace(grid, lap=-grid.lap)

    monkeypatch.setattr(cli, "build_grid", sabotaged)
    rc = cli.main(["verify", *SMALL, "--out", str(tmp_path)])
    assert rc == 2
    report = _load(tmp_path / "suite.json")
    statuses = {c["name"]: c["status"] for c in report["result"]["checks"]}
    assert statuses["laplacian-oracle"] == "fail"


def test_solve_uniform_fd_scheme(tmp_path):
    rc = cli.main(["solve", "--scheme", "uniform-fd", "--n", "100", "--starts", "2",
                   "--max-iter", "120", "--out", str(tmp_path)])
    assert rc == 0
    report = _load(tmp_path / "report.json")
    assert report["config"]["scheme"] == "uniform-fd"
    assert report["result"]["m"] > 0


def test_solve_judges_the_aux_solve_behind_auto_cp(tmp_path, capsys):
    # automatic cp rests on the auxiliary level, so a starved aux solve fails
    # the run as in bounds, although the main solve converges
    rc = cli.main(["solve", "--n", "32", "--starts", "4", "--max-iter", "5", "--out", str(tmp_path)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "the aux solve did not converge" in lines[0], lines
    assert _load(tmp_path / "report.json")["result"]["converged"] is True


@pytest.mark.parametrize("command", ["aux", "bounds"])
def test_large_power_runs_clean(tmp_path, capsys, command):
    # at p = 80 the unit-norm power iterates have max|u| ~ 0.01, where
    # |u|^(p-2) u and the squared norm of its Riesz image underflow; the
    # ascent steps from rows scaled to max|u| = 1, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--p", "80", "--n", "32", "--starts", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_exit_codes_exhaustive(tmp_path, capsys):
    # 0: success
    assert cli.main(["aux", *SMALL, "--out", str(tmp_path / "ok")]) == 0
    # 1: config error
    assert cli.main(["solve", "--beta", "2.0", "--out", str(tmp_path / "bad")]) == 1
    capsys.readouterr()
    # 2: numerical failure (verify with a sabotaged operator is covered above;
    # a solve starved of iterations must report non-convergence in one line
    # naming the stage and its relative gradient against tol)
    rc = cli.main(["solve", "--cp", "2.0", "--n", "32", "--starts", "1", "--max-iter", "1",
                   "--tol", "1e-14", "--out", str(tmp_path / "starved")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solve: "), lines
    assert "main solve did not converge" in lines[0] and "> tol 1e-14" in lines[0], lines
