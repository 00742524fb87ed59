"""CLI contract tests: JSON reports, exit codes, determinism."""

import contextlib
import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import argparse_oracle
import pytest
from hypothesis import assume, given, settings, strategies as st

import hypertoric
from hypertoric.arrangement import build_torus_data, classify
from hypertoric.cli import main, parse_args
from hypertoric.errors import HypertoricError

TP1 = {"a": [[1, -1]], "theta_hat": [1, 0],
       "params": {"hbar": "1/3", "c": ["1/5"]}}
A_TILDE2 = {"a": [[1, 1, 1]], "theta_hat": [2, 1, 0],
            "params": {"hbar": "1/3", "c": ["1/5"]}}
P1XP1 = {"a": [[1, -1, 0, 0], [0, 0, 1, -1]], "theta_hat": [1, 0, 1, 0],
         "params": {"hbar": "1/3", "c": ["1/5", "1/7"]}}
RANK8 = {"a": [[0, 0, 1, 1, 1], [1, 1, 0, 0, -1]],
         "theta_hat": [-2, -4, -5, -7, -4]}
TP3 = {"a": [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]],
       "theta_hat": [1, 0, 0, 0],
       "params": {"hbar": "1/3", "c": ["1/5", "1/5", "1/5"]}}


def write(tmp_path, data, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_check_t_star_p1(tmp_path, capsys):
    code, rep, err = run(capsys, ["check", write(tmp_path, TP1)])
    assert code == 0
    assert rep["pass"] is True
    assert rep["results"]["classification"]["smooth"] is True
    assert rep["results"]["circuit_count"] == 1
    assert rep["results"]["vertex_count"] == 2
    assert "PASS" in err


def test_check_rank8_circuits(tmp_path, capsys):
    code, rep, _ = run(capsys, ["check", write(tmp_path, RANK8)])
    assert code == 0
    supports = sorted(tuple(c["support"])
                      for c in rep["results"]["circuits"])
    assert supports == [(1, 2), (1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5),
                        (3, 4)]


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, rep, err = run(capsys, ["check", str(p)])
    assert code == 2
    assert rep is None
    assert "input error" in err


def test_schema_errors(tmp_path, capsys):
    for data in ({"theta_hat": [1, 0]},
                 {"a": [[1, -1]], "theta_hat": [1]},
                 {"a": [[1, 1], [2, 2]], "theta_hat": [1, 0]},
                 {"a": [["x", 1]], "theta_hat": [1, 0]},
                 {"a": [[True, -1]], "theta_hat": [1, 0]},
                 {"a": [[1, -1]], "theta_hat": [1, False]}):
        code, rep, _ = run(capsys, ["check", write(tmp_path, data)])
        assert code == 2, data
        assert rep is None, data


def test_nonsmooth_is_a_failing_verdict(tmp_path, capsys):
    code, rep, _ = run(
        capsys, ["check", write(tmp_path, {"a": [[1, 2]],
                                           "theta_hat": [1, 0]})])
    assert code == 1
    assert rep["results"]["classification"]["unimodular"] is False


def test_math_error_exit_3(tmp_path, capsys):
    # valid input, but ring presentations require smoothness
    code, _, err = run(
        capsys, ["ring", write(tmp_path, {"a": [[1, 2]],
                                          "theta_hat": [1, 0]})])
    assert code == 3
    assert "computation error" in err


def test_outside_localization_exit_3(tmp_path, capsys, monkeypatch):
    # a wall left out of the coefficient ring's factor set: the typed
    # error, reported as a computation error
    from functools import cache

    from hypertoric import quantum_ring
    from hypertoric.params import WallRing
    monkeypatch.setattr(quantum_ring, "WallRing",
                        lambda d, nq, walls: WallRing(d, nq, walls[1:]))
    # a fresh memo for this run; the package-wide one is left intact
    monkeypatch.setattr(quantum_ring, "ring", cache(quantum_ring.QuantumRing))
    code, rep, err = run(capsys, ["ring", write(tmp_path, A_TILDE2)])
    assert code == 3
    assert rep is None
    assert err.startswith("computation error (OutsideLocalization)")
    assert "Traceback" not in err


def test_work_budget_exit_3(tmp_path, capsys, monkeypatch):
    # a presentation build whose WallRing products form more numerator
    # terms than the budget stops with the typed error, and the count is
    # deterministic: a second run on the same ring, which finds the first
    # run's powers of the factors cached (they are not counted), stops at
    # the same count
    from functools import cache

    from hypertoric import params, quantum_ring
    monkeypatch.setattr(params, "TERM_BUDGET", 100)
    monkeypatch.setattr(quantum_ring, "ring", cache(quantum_ring.QuantumRing))
    path = write(tmp_path, A_TILDE2)
    errs = []
    for _ in range(2):
        code, rep, err = run(capsys, ["ring", path])
        assert code == 3 and rep is None
        assert err.startswith("computation error (BudgetExceeded)")
        errs.append(err)
    assert errs[0] == errs[1]
    count = int(re.search(r"formed (\d+) numerator terms", errs[0])[1])
    assert count > 100
    # the same ring builds once the budget admits it
    monkeypatch.setattr(params, "TERM_BUDGET", 10_000)
    assert run(capsys, ["ring", path])[0] == 0


def test_buchberger_budget_exit_3(tmp_path, capsys, monkeypatch):
    # a Buchberger run that needs more S-pair reductions than upoly.BUDGET
    # stops with the typed error
    from functools import cache

    from hypertoric import quantum_ring, upoly
    monkeypatch.setattr(upoly, "BUDGET", 5)
    monkeypatch.setattr(quantum_ring, "ring", cache(quantum_ring.QuantumRing))
    code, rep, err = run(capsys, ["ring", write(tmp_path, RANK8)])
    assert code == 3 and rep is None
    assert err.startswith("computation error (BudgetExceeded)")
    assert "Buchberger exceeded 5 reductions" in err


def test_staircase_cap_exit_3(tmp_path, capsys, monkeypatch):
    # a staircase with more standard monomials than upoly.STAIRCASE_CAP
    # (rank8_d2 has 8) stops with the typed error
    from functools import cache

    from hypertoric import quantum_ring, upoly
    monkeypatch.setattr(upoly, "STAIRCASE_CAP", 3)
    monkeypatch.setattr(quantum_ring, "ring", cache(quantum_ring.QuantumRing))
    code, rep, err = run(capsys, ["ring", write(tmp_path, RANK8)])
    assert code == 3 and rep is None
    assert err.startswith("computation error (NotZeroDimensional)")
    assert "staircase exceeded cap" in err


def test_ring_quantum(tmp_path, capsys):
    code, rep, _ = run(capsys, ["ring", write(tmp_path, TP1)])
    assert code == 0
    res = rep["results"]
    assert res["mode"] == "quantum"
    assert res["rank"] == 2
    assert res["circuit_relations_factored"] == \
        ["u1*u2 - q^(1,1)*(h-u1)*(h-u2)"]


def test_ring_classical_has_no_q(tmp_path, capsys):
    code, rep, _ = run(capsys, ["ring", write(tmp_path, TP1), "--classical"])
    assert code == 0
    assert rep["results"]["mode"] == "classical"
    assert all("q" not in g for g in rep["results"]["groebner_basis"])


def test_ring_rank8(tmp_path, capsys):
    code, rep, _ = run(capsys, ["ring", write(tmp_path, RANK8)])
    assert code == 0
    assert rep["results"]["rank"] == 8


def test_ring_matrices_flag(tmp_path, capsys):
    code, rep, _ = run(capsys,
                       ["ring", write(tmp_path, TP1), "--matrices"])
    assert code == 0
    mats = rep["results"]["multiplication_matrices"]
    assert len(mats) == 2 and len(mats[0]) == 2


def test_gkz(tmp_path, capsys):
    code, rep, _ = run(capsys, ["gkz", write(tmp_path, TP1)])
    assert code == 0
    assert rep["results"]["operator_count"] == 2  # d=1 linear + 1 circuit
    kinds = [o["kind"] for o in rep["results"]["operators"]]
    assert kinds == ["linear", "circuit"]


def test_resonance_verdicts(tmp_path, capsys):
    code, rep, _ = run(capsys, ["resonance", write(tmp_path, TP1)])
    assert code == 0
    assert rep["results"]["resonance"]["non_resonant"] is True
    code, rep, _ = run(capsys, ["resonance", write(tmp_path, TP1),
                                "--hbar", "0", "--c", "0"])
    assert code == 1
    assert rep["results"]["resonance"]["witness"] is not None


def test_resonance_rejects_float_params(tmp_path, capsys):
    data = dict(TP1, params={"hbar": 0.33, "c": ["1/5"]})
    code, _, err = run(capsys, ["resonance", write(tmp_path, data)])
    assert code == 2
    assert "exact fraction" in err


def test_malformed_params_are_input_errors(tmp_path, capsys):
    for command, params in (
            ("mirror-verify", {"hbar": "1/3", "c": 5}),
            ("resonance", {"hbar": "1/3", "c": 5}),
            ("resonance", {"hbar": True, "c": ["1/5"]}),
            ("resonance", {"hbar": "1/3", "c": [True]}),
            ("mirror-verify", {"hbar": "1/3", "c": ["1/5"],
                               "q": [["a", 1], [0.2, 0.1]]}),
            ("mirror-verify", {"hbar": "1/3", "c": ["1/5"],
                               "q": [[None, 1], [0.2, 0.1]]}),
            ("mirror-verify", {"hbar": "1/3", "c": ["1/5"],
                               "q": [[float("nan"), 1], [0.2, 0.1]]})):
        data = dict(TP1, params=params)
        code, rep, err = run(capsys, [command, write(tmp_path, data)])
        assert code == 2, params
        assert rep is None
        assert "input error" in err


def test_missing_params(tmp_path, capsys):
    code, _, _ = run(capsys, ["resonance",
                              write(tmp_path, {"a": [[1, -1]],
                                               "theta_hat": [1, 0]})])
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TP1)))
    code, rep, _ = run(capsys, ["check", "-"])
    assert code == 0
    assert rep["results"]["vertex_count"] == 2


def test_input_file_is_closed(tmp_path, capsys, monkeypatch):
    # a file left to the garbage collector warns when it is freed; that
    # warning, as an error, surfaces through sys.unraisablehook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    path = write(tmp_path, TP1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code, _, _ = run(capsys, ["check", path])
        gc.collect()
    assert code == 0
    assert not unraisable, [u.exc_value for u in unraisable]


def strip_wall(report):
    return {k: v for k, v in report.items() if k != "wall_ms"}


def test_report_determinism(tmp_path, capsys):
    path = write(tmp_path, TP1)
    reports = []
    for _ in range(2):
        code, rep, _ = run(capsys, ["ring", path, "--seed", "7"])
        assert code == 0
        reports.append(strip_wall(rep))
    assert reports[0] == reports[1]


def test_mirror_verify_end_to_end(tmp_path, capsys):
    path = write(tmp_path, TP1)
    code, rep, _ = run(capsys, ["mirror-verify", path, "--seed", "3",
                                "--points", "1"])
    assert code == 0
    names = {c["name"]: c["pass"] for c in rep["checks"]}
    assert names == {"gkz_annihilates_periods": True,
                     "period_matrix_rank": True,
                     "spectra_match": True,
                     "transport_consistent": True}
    # determinism of the full numeric pipeline under a fixed seed
    code2, rep2, _ = run(capsys, ["mirror-verify", path, "--seed", "3",
                                  "--points", "1"])
    assert code2 == 0
    assert strip_wall(rep2) == strip_wall(rep)


def test_mirror_verify_builds_one_connection(tmp_path, capsys, monkeypatch):
    # periods, spectra and transport share one family and one compiled
    # connection; the transport check takes the period matrix as its frame
    # (G~ = I), so the only other table compiled is that of the GKZ
    # relations' coefficients, for the check on periods
    from functools import cache

    from hypertoric import connection, quantum_ring
    built = {"family": 0, "numeric": 0, "compiled": 0}
    for cls, key in ((connection.ConnectionFamily, "family"),
                     (connection.NumericConnection, "numeric"),
                     (connection.CompiledFractions, "compiled")):
        def counting(self, *args, _init=cls.__init__, _key=key):
            built[_key] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    # a fresh memo for this run; the package-wide one is left intact
    monkeypatch.setattr(quantum_ring, "ring", cache(quantum_ring.QuantumRing))
    code, _, _ = run(capsys, ["mirror-verify", write(tmp_path, TP1),
                              "--seed", "3", "--points", "1"])
    assert code == 0
    assert built == {"family": 1, "numeric": 1, "compiled": 2}


def test_mirror_verify_integrates_no_period_twice(tmp_path, capsys,
                                                  monkeypatch):
    # one period pass per q point for the GKZ check, whose table at the
    # first point is also the transport frame, and one at the moved point
    from hypertoric import mirror
    calls = []
    period = mirror.period

    def counting(*args, **kwargs):
        calls.append(args)
        return period(*args, **kwargs)

    monkeypatch.setattr(mirror, "period", counting)
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, TP1),
                                "--seed", "3", "--points", "3"])
    assert code == 0, rep
    assert len(rep["results"]["gkz_on_periods"]["points"]) == 3
    assert len(calls) == 4


def test_mirror_verify_d2_builds_one_symbolic_ring(tmp_path, capsys,
                                                  monkeypatch):
    # the spectra read A_i(q) off the one Q(h, c, q) ring: one quantum
    # presentation and one compiled table, and no ring at the point
    from functools import cache

    from hypertoric import connection, quantum_ring
    builds, compiled = [], []

    def build(self, F, mode, _run=quantum_ring.QuantumRing._build):
        builds.append(mode)
        return _run(self, F, mode)

    def compile_(self, *args, _init=connection.CompiledFractions.__init__):
        compiled.append(1)
        _init(self, *args)

    monkeypatch.setattr(quantum_ring.QuantumRing, "_build", build)
    monkeypatch.setattr(connection.CompiledFractions, "__init__", compile_)
    monkeypatch.setattr(quantum_ring, "ring", cache(quantum_ring.QuantumRing))
    data = dict(RANK8, params={"hbar": "1/3", "c": ["1/5", "1/5"]})
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, data),
                                "--seed", "0", "--points", "1"])
    assert code == 0 and rep["results"]["spectra"]["count"] == 8
    assert builds == ["quantum"] and len(compiled) == 1


def test_mirror_verify_staircase_mismatch_exit_3(tmp_path, capsys,
                                                 monkeypatch):
    # the wall check is lifted, so the compiled ring meets a point of the
    # wall q1 q2 = 1 (where the ring at q has rank 2, not 4) as a pole
    from hypertoric import quantum_ring
    monkeypatch.setattr(quantum_ring, "WALL_TOL", 0.0)
    data = dict(P1XP1, params=dict(P1XP1["params"], q=[
        [2.0, 0.0], [0.5, 0.0], [0.3, 0.1], [0.2, -0.4]]))
    code, rep, err = run(capsys, ["mirror-verify", write(tmp_path, data)])
    assert code == 3
    assert rep is None
    assert "SingularEvaluation" in err and "pole" in err


def test_mirror_verify_d1_overflow_exit_3(tmp_path, capsys):
    # the exact q^k is about 1e616: rounding it to complex overflows
    data = dict(TP1, params=dict(TP1["params"], q=[[1e308, 0], [1e308, 0]]))
    code, rep, err = run(capsys, ["mirror-verify", write(tmp_path, data)])
    assert code == 3
    assert rep is None
    assert "SingularEvaluation" in err and "overflow" in err


def test_mirror_verify_d2_overflow_exit_3(tmp_path, capsys):
    # q_i t^{a_i} overflows at the critical points: phi would be nan
    data = dict(P1XP1, params=dict(P1XP1["params"], q=[[1e200, 0]] * 4))
    code, rep, err = run(capsys, ["mirror-verify", write(tmp_path, data)])
    assert code == 3
    assert rep is None
    assert "SingularEvaluation" in err and "overflow" in err


def test_mirror_verify_q_from_file(tmp_path, capsys):
    data = {"a": [[1, -1]], "theta_hat": [1, 0],
            "params": {"hbar": "1/3", "c": ["1/5"],
                       "q": [[0.31, 0.12], [0.22, -0.17]]}}
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, data)])
    assert code == 0
    assert len(rep["results"]["q_points"]) == 1
    assert rep["results"]["q_points"][0] == [[0.31, 0.12], [0.22, -0.17]]


def test_mirror_verify_d2_skips_periods(tmp_path, capsys):
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, P1XP1),
                                "--seed", "2"])
    assert code == 0
    assert "skipped" in rep["results"]["gkz_on_periods"]
    assert rep["results"]["spectra"]["pass"] is True


def test_mirror_verify_rank8_large_tropical_scale(tmp_path, capsys):
    # seed 5 draws a q at tropical scale lam ~ 2668, where |q|^lam underflows
    data = dict(RANK8, params={"hbar": "1/3", "c": ["1/5", "1/5"]})
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, data),
                                "--seed", "5"])
    assert code == 0
    assert rep["results"]["spectra"]["count"] == 8


def test_mirror_verify_d3(tmp_path, capsys):
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, TP3),
                                "--seed", "0"])
    assert code == 0
    assert "skipped" in rep["results"]["gkz_on_periods"]
    assert rep["results"]["spectra"]["count"] == 4
    assert rep["results"]["spectra"]["pass"] is True


def test_mirror_verify_rank_counts_every_cycle(tmp_path, capsys):
    # ring rank 3: the period matrix must reach rank 3, one per cycle
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, A_TILDE2),
                                "--seed", "0", "--points", "1"])
    assert code == 0
    point = rep["results"]["gkz_on_periods"]["points"][0]
    assert point["period_matrix_rank"] == point["cycles"] == 3


def test_mirror_verify_q_near_branch_cut(tmp_path, capsys):
    # seed 110 puts q_2 at -0.304 - 0.004i; the transport displacement then
    # crosses the negative real axis
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, TP1),
                                "--seed", "110", "--points", "1"])
    assert code == 0
    assert rep["results"]["transport"]["max_relative_deviation"] < 1e-6


def test_mirror_verify_points_below_one(tmp_path, capsys):
    for data in (TP1, P1XP1):
        code, rep, err = run(capsys, ["mirror-verify", write(tmp_path, data),
                                      "--points", "0"])
        assert code == 2, data
        assert rep is None
        assert "--points" in err


@pytest.mark.parametrize("data", [
    TP1, dict(TP1, params=dict(TP1["params"],
                               q=[[0.31, 0.12], [0.22, -0.17]]))],
    ids=["seeded-q", "params-q"])
def test_mirror_verify_rejects_negative_seed(tmp_path, capsys, monkeypatch,
                                             data):
    # numpy refuses a negative seed; without params.q it draws the points,
    # with it the seed still drives the spectra and the transport path
    from hypertoric import mirror

    def refuse(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(mirror, "verify_gkz_on_periods", refuse)
    code, rep, err = run(capsys, ["mirror-verify", write(tmp_path, data),
                                  "--seed=-1"])
    assert code == 2
    assert rep is None
    assert "--seed" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_mirror_verify_rejects_bad_tol(tmp_path, capsys, monkeypatch, tol):
    # rejected as input before any computation starts
    from hypertoric import mirror

    def refuse(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(mirror, "verify_gkz_on_periods", refuse)
    code, rep, err = run(capsys, ["mirror-verify", write(tmp_path, TP1),
                                  "--tol", tol])
    assert code == 2
    assert rep is None
    assert "--tol" in err


@pytest.mark.parametrize("data", [TP1, RANK8], ids=["t_star_p1", "rank8_d2"])
def test_mirror_verify_refuses_zero_hbar(tmp_path, capsys, data):
    # at h = 0 the superpotential has no isolated critical points: a typed
    # refusal (exit 3) before any ring or period work, with no numpy warning
    data = dict(data, params={"hbar": "0", "c": ["1/5"] * len(data["a"])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, err = run(capsys, ["mirror-verify", write(tmp_path, data),
                                      "--points", "1"])
    assert code == 3
    assert rep is None
    assert "ParameterDegeneracy" in err and "h = 0" in err


def test_cli_runs_blas_single_threaded(tmp_path):
    # in a fresh interpreter the BLAS thread counts default to 1 before
    # numpy is imported; a value the user set is kept
    src = str(Path(hypertoric.__file__).resolve().parents[1])
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["mirror-verify", write(tmp_path, TP1), "--points", "1"]
    code = ("import contextlib, io, os, sys\n"
            "import hypertoric.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = hypertoric.cli.main({argv!r})\n"
            f"print(code, *(os.environ[k] for k in {names!r}))")
    for user, want in ((None, "0 1 1 1"), ("2", "0 2 1 1")):
        if user is not None:
            env["OPENBLAS_NUM_THREADS"] = user
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.strip() == want


@pytest.mark.parametrize("argv", [
    ["ring", "--quantum"], ["check", "--tol", "1e-6"],
    ["gkz", "--hbar", "1/3"], ["ring", "--c", "1/5"],
    ["resonance", "--tol", "1e-6"]],
    ids=["ring-quantum", "check-tol", "gkz-hbar", "ring-c", "resonance-tol"])
def test_flags_a_command_never_reads_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], write(tmp_path, TP1)] + argv[1:])
    assert exc.value.code == 2


def test_value_starting_with_minus(tmp_path, capsys):
    # the token after an option that takes a value is that value
    path = write(tmp_path, TP1)
    reports = []
    for argv in (["--hbar", "1/3", "--c", "-1/5"],
                 ["--hbar=1/3", "--c=-1/5"]):
        code, rep, _ = run(capsys, ["resonance", path] + argv)
        assert code == 0
        assert rep["results"]["c"] == ["-1/5"]
        reports.append(strip_wall(rep))
    assert reports[0] == reports[1]


def test_unique_prefixes_and_double_dash(tmp_path, capsys):
    path = write(tmp_path, TP1)
    code, rep, _ = run(capsys, ["ring", "--mat", "--se=7", "--", path])
    assert code == 0
    assert rep["seed"] == 7
    assert "multiplication_matrices" in rep["results"]
    with pytest.raises(SystemExit) as exc:  # --help or --hbar
        main(["mirror-verify", path, "--h", "1/3"])
    assert exc.value.code == 2
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["--he"], ["check", "-h"], ["ring", "x", "--help"],
    ["mirror-verify", "--help"], ["resonance", "--bogus", "-h"]])
def test_help_lists_the_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hypertoric")
    command = next((a for a in argv if not a.startswith("-")), None)
    names = (["--version", "mirror-verify"] if command is None else
             ["--seed"] + {"ring": ["--classical", "--matrices"],
                           "mirror-verify": ["--hbar", "--c", "--tol",
                                             "--points"],
                           "resonance": ["--hbar", "--c"]}.get(command, []))
    assert all(name in out for name in names)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == hypertoric.__version__


@pytest.mark.parametrize("argv", [
    [], ["bogus", "x"], ["check"], ["check", "x", "y"], ["ring", "x", "--seed"],
    ["ring", "x", "--seed", "one"], ["mirror-verify", "x", "--tol=tiny"],
    ["ring", "x", "--matrices=yes"], ["--seed", "1", "check", "x"],
    ["check", "x", "-x"]])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hypertoric") and "error: " in err


def test_cli_import_loads_no_argparse():
    # the option table replaces argparse, and with it gettext and locale
    src = str(Path(hypertoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import hypertoric.cli\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


# The argv vocabulary: every command with the options it reads, sample
# values, and junk that no command takes.
CLI_OPTIONS = {
    "check": ["seed"], "ring": ["seed", "classical", "matrices"],
    "gkz": ["seed"], "mirror-verify": ["seed", "hbar", "c", "tol", "points"],
    "resonance": ["seed", "hbar", "c"]}
OPTION_VALUES = {
    "seed": ["0", "7", "-1", "12", "x", ""],
    "hbar": ["1/3", "-1/5", "x", ""], "c": ["1/5", "1/5,1/7", "-1/5"],
    "tol": ["1e-6", "nan", "-1", "0.5", "x"], "points": ["1", "0", "4", "two"],
    "classical": [], "matrices": []}
JUNK = ["--bogus", "-x", "--quantum", "--seeds", "--version", "extra", "1/3",
        "", "-"]
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@st.composite
def cli_argv(draw):
    """argv for the command line: sometimes top-level junk, a command (or
    none, or an unknown one), then input files, options of this or another
    command in the --name value and --name=value forms with values
    sometimes dropped, and junk."""
    argv = draw(st.sampled_from([[]] * 15 + [["--version"], ["--bogus"],
                                             ["-x"]]))
    command = draw(st.sampled_from([*CLI_OPTIONS] * 3 + [None, "bogus"]))
    if command is not None:
        argv.append(command)
    own = CLI_OPTIONS.get(command, [])
    parts = [["in.json"]] if draw(st.integers(0, 3)) else []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["own"] * 8 + ["any", "junk", "input"]))
        if kind == "input":
            parts.append(["in.json"])
            continue
        if kind == "junk":
            parts.append([draw(st.sampled_from(JUNK))])
            continue
        name = draw(st.sampled_from(own if kind == "own" and own
                                    else sorted(OPTION_VALUES)))
        values = OPTION_VALUES[name]
        form = draw(st.sampled_from(["space"] * 3 + ["eq"] * 2 + ["drop"]))
        if not values:                          # a flag
            parts.append([f"--{name}=x"] if form == "eq" else [f"--{name}"])
        elif form == "drop":
            parts.append([f"--{name}"])
        else:
            value = draw(st.sampled_from(values))
            parts.append([f"--{name}={value}"] if form == "eq"
                         else [f"--{name}", value])
    draw(st.randoms()).shuffle(parts)
    return argv + [tok for part in parts for tok in part]


def minus_value(argv):
    """The first intended difference: whether a value option of the command
    is followed by a token that argparse reads as an option, since it
    starts with '-' and is not a negative number, where the scan reads it
    as the value.  (The second, the layout of --help, is never drawn.)"""
    command = next((t for t in argv[:2] if t in CLI_OPTIONS), None)
    if command is None:
        return False
    takes_value = {name for name in CLI_OPTIONS[command]
                   if OPTION_VALUES[name]}
    body = argv[argv.index(command):]
    return any(
        tok[2:] in takes_value and nxt.startswith("-") and nxt != "-"
        and not NEGATIVE_NUMBER.match(nxt)
        for tok, nxt in zip(body, body[1:]))


def parsed(parse, argv):
    """("args", every field) of an accepted argv, or ("exit", code)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return "args", repr(sorted(vars(parse(argv)).items()))
        except SystemExit as e:
            return "exit", e.code


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
def test_argv_scan_matches_argparse(argv):
    assume(not minus_value(argv))
    got = parsed(parse_args, argv)
    assert got == parsed(argparse_oracle.parse_args, argv), argv
    if got[0] == "exit":
        assert got[1] == (0 if "--version" in argv[:1] else 2), argv


A_TILDE3 = {"a": [[1, 1, 1, 1]], "theta_hat": [3, 2, 1, 0],
            "params": {"hbar": "1/3", "c": ["1/5"]}}
RANK8_PARAMS = dict(RANK8, params={"hbar": "1/3", "c": ["1/5", "1/5"]})


@pytest.mark.parametrize("data, argv", [
    (TP1, ["mirror-verify", "--seed", "0"]),
    (RANK8_PARAMS, ["mirror-verify", "--seed", "0", "--points", "1"]),
    (RANK8_PARAMS, ["ring", "--matrices"]),
    (RANK8_PARAMS, ["gkz"]),
    (A_TILDE3, ["resonance"])],
    ids=["t_star_p1-mirror-verify", "rank8_d2-mirror-verify",
         "rank8_d2-ring-matrices", "rank8_d2-gkz", "a_tilde_3-resonance"])
def test_command_loads_no_lazy_module(tmp_path, data, argv):
    # numpy imports some submodules (numpy.ma, for one, behind np.unique)
    # on first use, and so may any other package; a run after the
    # package's own imports must load no module at all, or the first run
    # of a command pays for an import
    src = str(Path(hypertoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [argv[0], write(tmp_path, data)] + argv[1:]
    code = ("import contextlib, importlib, io, pkgutil, sys\n"
            "import hypertoric\n"
            "for m in pkgutil.iter_modules(hypertoric.__path__):\n"
            "    importlib.import_module('hypertoric.' + m.name)\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = hypertoric.cli.main({argv!r})\n"
            "print(code, sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "0 []"


def test_exact_commands_load_no_numpy(tmp_path):
    # check, ring, gkz and resonance are exact over Q(h, c, q): in a fresh
    # interpreter none of them imports numpy, which only the numeric side
    # and the wall checks of quantum_ring load, inside their functions
    src = str(Path(hypertoric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = write(tmp_path, RANK8_PARAMS)
    commands = [["check"], ["ring", "--matrices"], ["gkz"], ["resonance"]]
    code = ("import contextlib, io, sys\n"
            "import hypertoric.cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        code = hypertoric.cli.main([argv[0], {path!r}, "
            "*argv[1:]])\n"
            "    print(argv[0], code, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split("\n")[:-1] == [
        f"{argv[0]} 0 False" for argv in commands]


EXTREME_MODULI = (1e-300, 1e-150, 0.3, 1e150, 1e300)


def random_unimodular(rnd):
    """A random unimodular (a, theta_hat) with d <= 2, n <= 4 and entries
    of a in [-2, 2]; not necessarily simple."""
    while True:
        d = rnd.randint(1, 2)
        n = rnd.randint(d + 1, 4)
        a = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(d)]
        theta = [rnd.randint(-5, 5) for _ in range(n)]
        try:
            if classify(build_torus_data(a, theta))["unimodular"]:
                return a, theta
        except HypertoricError:
            continue


def test_cli_fuzz_extreme_points(tmp_path, capsys):
    # moduli from 1e-300 to 1e300 with random phases: every run ends in an
    # exit code, never in a traceback
    rnd = random.Random("cli-fuzz")
    codes = set()
    for _ in range(40):
        a, theta = random_unimodular(rnd)
        q = []
        for _ in a[0]:
            mod, phase = rnd.choice(EXTREME_MODULI), rnd.uniform(-math.pi,
                                                                math.pi)
            q.append([mod * math.cos(phase), mod * math.sin(phase)])
        path = write(tmp_path, {"a": a, "theta_hat": theta, "params": {
            "hbar": "1/3", "c": ["1/5"] * len(a), "q": q}})
        for argv in (["mirror-verify", path, "--seed", "0"],
                     ["ring", path, "--matrices"], ["check", path],
                     ["gkz", path], ["resonance", path]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, a,
                                                                      q, err)
            codes.add(code)
    assert {0, 3} <= codes


@pytest.mark.parametrize("data", [
    # a critical point t that underflows to 0 (ZeroDivisionError in phi)
    {"a": [[-1, 0, 1], [-1, -1, 0]], "theta_hat": [3, 4, -5], "q": [
        [-5.5512539271217e-151, 8.317666730316615e-151],
        [-0.280998877630228, -0.10506964723721181],
        [9.869565426024369e-302, -9.95117665319103e-301]]}],
    ids=["d2-critical-point-underflow"])
def test_mirror_verify_overflow_is_typed(tmp_path, capsys, data):
    data = {"a": data["a"], "theta_hat": data["theta_hat"], "params": {
        "hbar": "1/3", "c": ["1/5"] * len(data["a"]), "q": data["q"]}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, _, err = run(capsys, ["mirror-verify", write(tmp_path, data),
                                    "--seed", "0"])
    assert code == 3 and "SingularEvaluation" in err


def test_mirror_verify_d1_extreme_q_matches_mpmath(tmp_path, capsys):
    # q_1 ~ 1e-300 and q_2 ~ 1e300: the cleared critical polynomial's
    # companion matrix overflows a float here, but the critical points
    # seeded from the joint spectrum need no polynomial.  Both are the
    # roots of (h - c) q_1 t^2 - c (1 + q_1 q_2) t - (h + c) q_2, the
    # critical equation h (phi_1 - phi_2) = c of a = [[1, -1]] with its
    # denominators cleared, taken by the quadratic formula at 50 digits.
    # No float overflow may warn on the way.
    from fractions import Fraction

    import mpmath

    from hypertoric.mirror import (MirrorModel, critical_points,
                                   joint_eigenvalues)
    from hypertoric.quantum_ring import ring
    q = [complex(-5.893254996925419e-301, 8.078956958742483e-301),
         complex(-1.056545766568591e+299, -9.944028914034089e+299)]
    data = {"a": [[1, -1]], "theta_hat": [-4, 1], "params": {
        "hbar": "1/3", "c": ["1/5"], "q": [[z.real, z.imag] for z in q]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, data),
                                    "--seed", "0"])
    assert code == 0
    assert rep["results"]["spectra"]["count"] == 2
    td = build_torus_data(data["a"], data["theta_hat"])
    hb, cv = Fraction(1, 3), [Fraction(1, 5)]
    lams = joint_eigenvalues(ring(td).numeric(hb, cv).matrices_at(q))
    got = sorted((t for t, in critical_points(
        MirrorModel(td, hb, cv, q), lams)), key=abs)
    assert len(got) == 2
    with mpmath.workdps(50):
        h, c = mpmath.mpf(1) / 3, mpmath.mpf(1) / 5
        q1, q2 = (mpmath.mpc(z.real, z.imag) for z in q)
        a2, a1, a0 = (h - c) * q1, -c * (1 + q1 * q2), -(h + c) * q2
        disc = mpmath.sqrt(a1 * a1 - 4 * a2 * a0)
        roots = sorted([(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)],
                       key=abs)
        assert all(abs(t - r) <= 1e-10 * abs(r) for t, r in zip(got, roots))
