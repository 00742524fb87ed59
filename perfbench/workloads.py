"""The benchmark's workloads: seeded inputs, the operations run on them,
and the oracle check applied to each operation's output.

A workload is a list of jobs; each job runs in one fresh process forked
from the benchmark, and each call in a job is one timed operation.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np

import oracles

HBAR, C = Fraction(1, 3), Fraction(1, 5)   # (h, c_j) of the numeric workloads
DENOMS_H = (7, 11, 13, 17, 19, 23)         # resonance parameters: h = p/r,
DENOMS_C = (29, 31, 37, 41, 43, 47)        # c_j = p/r with other primes r
DIVISOR_INSTANCES = ("t_star_p1", "a_tilde_2", "p1_times_p1", "a_tilde_3")
MIRROR_POINTS = 3                          # seeded q points on t_star_p1
PHASE_MARGIN = 0.1                         # radians off the negative real axis
# q points per instance, one per stratum of the tropical scale (see README)
SPECTRA = {"rank8_d2": (6, (8.0, 30.0)), "p1_times_p1": (6, (4.5, 8.5))}


def instance(catalog, name):
    """Matroid data of a catalog instance, with the oracle's own bases and
    circuits."""
    td = catalog.INSTANCES[name]()
    a = [list(r) for r in td.a]
    theta = list(td.theta_hat)
    return {"name": name, "a": a, "theta_hat": theta,
            "bases": oracles.bases(a), "circuits": oracles.circuits(a, theta)}


def cli_call(inst, argv, params=None, verify=None, **extra):
    data = {"a": inst["a"], "theta_hat": inst["theta_hat"]}
    if params:
        data["params"] = params
    return {"kind": "cli", "instance": inst["name"], "argv": argv,
            "stdin": json.dumps(data), "verify": verify, **extra}


def lib_call(inst, module, fn, kwargs, verify):
    return {"kind": "lib", "instance": inst["name"], "module": module,
            "fn": fn, "kwargs": kwargs, "verify": verify}


def nonresonant_params(rng, inst):
    """Seeded (h, c) with prime denominators, redrawn until the oracle
    finds them non-resonant, so the resonance verdict is never a failure."""
    a = inst["a"]
    n = len(a[0])
    minimal = oracles.minimal_saturated(n, inst["circuits"])
    while True:
        h = Fraction(rng.randint(1, 40), rng.choice(DENOMS_H))
        cs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 40),
                       rng.choice(DENOMS_C)) for _ in a]
        v = [h] * n + cs
        if not any(oracles.in_span_plus_lattice(v, oracles.lin_complement(a, Q))
                   for Q in minimal):
            return h, cs


def exact_cold(catalog, seed):
    jobs = []
    insts = {name: instance(catalog, name) for name in catalog.INSTANCES}
    rng = random.Random(f"exact_cold:{seed}")
    for name, inst in insts.items():
        h, cs = nonresonant_params(rng, inst)
        res_argv = [f"--hbar={h}", "--c=" + ",".join(map(str, cs))]
        for call in (
                cli_call(inst, ["check", "-"], verify="check"),
                cli_call(inst, ["ring", "-", "--matrices"], verify="ring",
                         point_seed=rng.randrange(2 ** 32)),
                cli_call(inst, ["gkz", "-"], verify="gkz"),
                cli_call(inst, ["resonance", "-"] + res_argv,
                         verify="resonance", hbar=str(h),
                         c=[str(x) for x in cs])):
            jobs.append([call])
    for name in DIVISOR_INSTANCES:
        jobs.append([lib_call(insts[name], "quantum_ring",
                              "verify_divisor_formula",
                              {"seed": rng.randrange(1000)}, "divisor")])
    return jobs, insts


def mirror_points(rng, n, count):
    """q points as the CLI seeds them (moduli in [0.15, 0.45], uniform
    phases), but with every phase PHASE_MARGIN away from the negative real
    axis, where the transport check fails (see README)."""
    bound = math.pi - PHASE_MARGIN
    return [(0.15 + 0.3 * rng.random(n)) * np.exp(1j * rng.uniform(-bound, bound, n))
            for _ in range(count)]


def mirror_d1(catalog, seed):
    insts = {name: instance(catalog, name) for name in ("t_star_p1", "a_tilde_2")}
    params = {"hbar": str(HBAR), "c": [str(C)]}
    qs = mirror_points(np.random.default_rng(seed), 2, MIRROR_POINTS)
    jobs = [
        [cli_call(insts["t_star_p1"], ["mirror-verify", "-", f"--seed={seed}"],
                  dict(params, q=[[[z.real, z.imag] for z in q] for q in qs]),
                  verify="mirror", points=MIRROR_POINTS)],
        # fixed input: this operation fails on every run (see README)
        [cli_call(insts["a_tilde_2"], ["mirror-verify", "-", "--seed", "0",
                                       "--points", "1"], params,
                  verify="mirror", points=1)],
    ]
    return jobs, insts


def tropical_scale(a, bases, qn):
    """How far the tropical start of the d=2 homotopy sits from q: with
    w = log|q| and s the smallest tropical sign |w_i + a_i . u_B| over
    bases B and i outside B, max(6 / s, log 1e-3 / log max|q|)."""
    w = np.log(np.abs(qn))
    d, n = len(a), len(a[0])
    smin = math.inf
    for B in bases:
        M = np.array([[a[j][i] for i in B] for j in range(d)], dtype=float)
        u = np.linalg.solve(M.T, -w[list(B)])
        for i in range(n):
            if i not in B:
                smin = min(smin, abs(w[i] + sum(a[j][i] * u[j] for j in range(d))))
    return max(6.0 / smin, math.log(1e-3) / math.log(np.abs(qn).max()))


def stratified_points(rng, inst, count, scale_range):
    """count q points, one per stratum of the tropical scale, log-uniform
    over scale_range; moduli in [0.15, 0.45], phases uniform."""
    a, bases = inst["a"], inst["bases"]
    n = len(a[0])
    lo, hi = (math.log(x) for x in scale_range)
    edges = [math.exp(lo + (hi - lo) * k / count) for k in range(count + 1)]
    points = [None] * count
    for _ in range(100000):
        if all(p is not None for p in points):
            return points
        mod = 0.15 + 0.3 * rng.random(n)
        qn = mod * np.exp(2j * np.pi * rng.random(n))
        lam = tropical_scale(a, bases, qn)
        for k in range(count):
            if points[k] is None and edges[k] <= lam < edges[k + 1]:
                points[k] = qn
                break
    raise RuntimeError(f"strata {scale_range} not filled on {inst['name']}")


def spectra_sweep(catalog, seed):
    jobs, insts = [], {}
    for idx, (name, (count, scale_range)) in enumerate(SPECTRA.items()):
        inst = insts[name] = instance(catalog, name)
        rng = np.random.default_rng([seed, idx])
        d = len(inst["a"])
        jobs.append([lib_call(inst, "mirror", "compare_spectra",
                              {"hbar": HBAR, "cvals": [C] * d, "qn": qn,
                               "seed": seed % 1000, "tol": oracles.SPECTRA_TOL[d]},
                              "spectra")
                     for qn in stratified_points(rng, inst, count, scale_range)])
    return jobs, insts


WORKLOADS = {"exact_cold": exact_cold, "mirror_d1": mirror_d1,
             "spectra_sweep": spectra_sweep}


def program_failed(call, out):
    """Whether the program itself reported failure: a non-zero exit code,
    an exception, or a library report with a false verdict."""
    if "exception" in out:
        return True
    if call["kind"] == "cli":
        return out["exit"] != 0
    rep = out["result"]
    return not rep.get("pass", rep.get("all_exact", True))


def verify(call, out, insts, iotas):
    """Oracle problems with a successful operation's output."""
    inst = insts[call["instance"]]
    kind = call["verify"]
    rep = json.loads(out["stdout"]) if call["kind"] == "cli" else out["result"]
    if kind == "check":
        problems = oracles.check_check_report(rep, inst)
        if not problems:
            iotas[inst["name"]] = rep["results"]["torus_data"]["iota"]
        return problems
    if kind == "ring":
        if inst["name"] not in iotas:
            return ["no verified kernel basis from `check` for this instance"]
        return oracles.check_ring_report(rep, inst, iotas[inst["name"]],
                                         call["point_seed"])
    if kind == "gkz":
        return oracles.check_gkz_report(rep, inst)
    if kind == "resonance":
        return oracles.check_resonance_report(rep, inst, call["hbar"], call["c"])
    if kind == "divisor":
        return oracles.check_divisor_report(rep, inst)
    if kind == "mirror":
        return oracles.check_mirror_report(rep, inst, call["points"])
    if kind == "spectra":
        return oracles.check_spectra(rep, inst, len(inst["a"]))
    raise ValueError(f"unknown check {kind!r}")
