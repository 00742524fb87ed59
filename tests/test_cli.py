"""CLI contract tests: JSON reports, exit codes, determinism."""

import json

import pytest

from hypertoric.cli import main

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
                        lambda F, shifts: WallRing(F, shifts[1:]))
    # a fresh memo for this run; the package-wide one is left intact
    monkeypatch.setattr(quantum_ring, "ring", cache(quantum_ring.QuantumRing))
    code, rep, err = run(capsys, ["ring", write(tmp_path, A_TILDE2)])
    assert code == 3
    assert rep is None
    assert err.startswith("computation error (OutsideLocalization)")
    assert "Traceback" not in err


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
    # periods, spectra, G~ and transport share one family and one compile
    from functools import cache

    from hypertoric import connection, quantum_ring
    built = {"family": 0, "numeric": 0}
    for cls, key in ((connection.ConnectionFamily, "family"),
                     (connection.NumericConnection, "numeric")):
        def counting(self, *args, _init=cls.__init__, _key=key):
            built[_key] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    # a fresh memo for this run; the package-wide one is left intact
    monkeypatch.setattr(quantum_ring, "ring", cache(quantum_ring.QuantumRing))
    code, _, _ = run(capsys, ["mirror-verify", write(tmp_path, TP1),
                              "--seed", "3", "--points", "1"])
    assert code == 0
    assert built == {"family": 1, "numeric": 1}


def test_mirror_verify_d2_builds_no_symbolic_ring(tmp_path, capsys,
                                                 monkeypatch):
    from hypertoric import connection
    from hypertoric.quantum_ring import QuantumRing

    def refuse(self, *args):
        raise AssertionError(f"{type(self).__name__} built its symbolic part")

    monkeypatch.setattr(QuantumRing, "presentation", refuse)
    monkeypatch.setattr(connection.NumericConnection, "__init__", refuse)
    data = dict(RANK8, params={"hbar": "1/3", "c": ["1/5", "1/5"]})
    code, rep, _ = run(capsys, ["mirror-verify", write(tmp_path, data),
                                "--seed", "0", "--points", "1"])
    assert code == 0 and rep["results"]["spectra"]["count"] == 8


def test_mirror_verify_staircase_mismatch_exit_3(tmp_path, capsys,
                                                 monkeypatch):
    # the wall check is lifted so that the staircase guard meets a point
    # of the wall q1 q2 = 1, where the staircase changes
    from hypertoric import quantum_ring
    monkeypatch.setattr(quantum_ring, "WALL_TOL", 0.0)
    data = dict(P1XP1, params=dict(P1XP1["params"], q=[
        [2.0, 0.0], [0.5, 0.0], [0.3, 0.1], [0.2, -0.4]]))
    code, rep, err = run(capsys, ["mirror-verify", write(tmp_path, data)])
    assert code == 3
    assert rep is None
    assert "ParameterDegeneracy" in err and "staircase" in err


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


@pytest.mark.parametrize("argv", [
    ["ring", "--quantum"], ["check", "--tol", "1e-6"],
    ["gkz", "--hbar", "1/3"], ["ring", "--c", "1/5"],
    ["resonance", "--tol", "1e-6"]],
    ids=["ring-quantum", "check-tol", "gkz-hbar", "ring-c", "resonance-tol"])
def test_flags_a_command_never_reads_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], write(tmp_path, TP1)] + argv[1:])
    assert exc.value.code == 2
