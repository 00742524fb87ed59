"""Seeded sweep of `mirror-verify` over the CLI's own draws.

Runs `hypertoric mirror-verify <instance> --seed s --points 1` in-process,
with h = 1/3 and c_j = 1/5 for every j, over

    t_star_p1 seeds 0-299, a_tilde_1 0-199, a_tilde_2 0-99, a_tilde_3 0-299
    (d = 1: periods, GKZ residuals, spectra and transport),
    rank8_d2, p1_times_p1, t_star_p2 and t_star_p3 seeds 0-99
    (d >= 2: the spectra check),

and prints every non-zero exit with its transport deviation (exit 1) or
its error (exit 3), then a count per instance.  Not part of the test suite
(pytest does not collect this file); a full sweep takes a few minutes.

    PYTHONPATH=src python tests/sweep_mirror_verify.py [--reports FILE]
        [--compare OLD] [instance ...]

--reports writes one JSON line per run (instance, seed, exit code and the
report without wall_ms), so that two sweeps can be compared run by run.
--compare reads such a file from an earlier sweep and, after this sweep,
prints every run whose exit code differs from it, the largest change of
transport.max_relative_deviation, of spectra.max_deviation and of any
gkz_on_periods.points[].max_relative_residual over the runs both report,
how many runs changed any gkz_on_periods.points[].period_matrix_rank, how
many runs' reports differ from the stored ones in any field, and which
fields differ, with a count of runs for each.
"""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypertoric import catalog
from hypertoric.cli import main

SEEDS = {"t_star_p1": range(300), "a_tilde_1": range(200),
         "a_tilde_2": range(100), "a_tilde_3": range(300),
         "rank8_d2": range(100), "p1_times_p1": range(100),
         "t_star_p2": range(100), "t_star_p3": range(100)}


def run(path, d, seed):
    """(exit code, report or None, stderr) of one mirror-verify run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mirror-verify", str(path), "--hbar", "1/3",
                     "--c", ",".join(["1/5"] * d), "--seed", str(seed),
                     "--points", "1"])
    report = json.loads(out.getvalue()) if out.getvalue().strip() else None
    if report is not None:
        del report["wall_ms"]
    return code, report, err.getvalue()


def sweep(names, reports=None):
    """Run every seed of every instance in names; returns {(instance, seed):
    (exit code, report)}."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            td = catalog.INSTANCES[name]()
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps({"a": [list(r) for r in td.a],
                                        "theta_hat": list(td.theta_hat)}))
            bad = 0
            for seed in SEEDS[name]:
                code, report, err = run(path, td.d, seed)
                runs[name, seed] = code, report
                if reports is not None:
                    reports.write(json.dumps(
                        {"instance": name, "seed": seed, "exit": code,
                         "report": report}, sort_keys=True) + "\n")
                if code == 0:
                    continue
                bad += 1
                if report is not None and "transport" in report["results"]:
                    dev = report["results"]["transport"][
                        "max_relative_deviation"]
                    why = f"transport deviation {dev:.3e}"
                else:
                    why = err.strip().splitlines()[-1]
                print(f"{name} seed {seed}: exit {code}, {why}", flush=True)
            print(f"{name}: {len(SEEDS[name])} seeds, {bad} non-zero exits",
                  flush=True)
    return runs


def deviation(report, check, field):
    """report["results"][check][field], or None if the run has none."""
    if report is None or check not in report["results"]:
        return None
    return report["results"][check][field]


def point_fields(report, field):
    """The field of every gkz_on_periods point of report, as a list, or
    None if the run has no such points."""
    if report is None:
        return None
    points = report["results"].get("gkz_on_periods", {}).get("points")
    return None if points is None else [p[field] for p in points]


def differing_fields(new, old, path=""):
    """The dotted paths of the leaves where two reports differ; list
    entries share one path, with [] for their index."""
    if isinstance(new, dict) and isinstance(old, dict):
        out = set()
        for k in set(new) | set(old):
            out |= differing_fields(new.get(k), old.get(k),
                                    f"{path}.{k}" if path else k)
        return out
    if (isinstance(new, list) and isinstance(old, list)
            and len(new) == len(old)):
        out = set()
        for x, y in zip(new, old):
            out |= differing_fields(x, y, f"{path}[]")
        return out
    return set() if new == old else {path or "(report)"}


DEVIATIONS = [("transport", "max_relative_deviation"),
              ("spectra", "max_deviation")]
RESIDUAL = "gkz_on_periods.points[].max_relative_residual"


def changes(new, old):
    """{quantity: |change|} over the quantities both reports give: the
    transport and spectra deviations, and the GKZ residuals, as the
    largest change over the points."""
    out = {}
    for dev in DEVIATIONS:
        x, y = deviation(new, *dev), deviation(old, *dev)
        if x is not None and y is not None:
            out[".".join(dev)] = abs(x - y)
    x, y = (point_fields(r, "max_relative_residual") for r in (new, old))
    if x is not None and y is not None and len(x) == len(y):
        out[RESIDUAL] = max(abs(a - b) for a, b in zip(x, y))
    return out


def compare(runs, old):
    """Print each run of runs whose exit code differs from the same run in
    old (an open --reports file), the largest change of the transport and
    spectra deviations and of the GKZ residuals over the runs both report,
    the count of runs whose period matrix ranks changed, the count of runs
    whose report differs in any field, and the count per differing
    field."""
    changed, differ, ranks = 0, 0, 0
    fields = {}
    worst, moved = {}, {}
    for line in old:
        rec = json.loads(line)
        key = rec["instance"], rec["seed"]
        if key not in runs:
            continue
        code, report = runs[key]
        if report != rec["report"]:
            differ += 1
            for f in differing_fields(report, rec["report"]):
                fields[f] = fields.get(f, 0) + 1
        if code != rec["exit"]:
            changed += 1
            print(f"{key[0]} seed {key[1]}: exit {rec['exit']} -> {code}")
        for name, change in changes(report, rec["report"]).items():
            moved[name] = moved.get(name, 0) + 1
            if name not in worst or change > worst[name][0]:
                worst[name] = change, key
        ranks += (point_fields(report, "period_matrix_rank")
                  != point_fields(rec["report"], "period_matrix_rank"))
    print(f"{changed} changed exit codes", flush=True)
    print(f"{ranks} runs changed gkz_on_periods.points[].period_matrix_rank",
          flush=True)
    for name, (change, key) in worst.items():
        print(f"largest change of {name} over {moved[name]} runs: "
              f"{change:.3e} ({key[0]} seed {key[1]})", flush=True)
    print(f"{differ} runs whose report differs in any field", flush=True)
    for f, count in sorted(fields.items()):
        print(f"  {f}: {count} runs", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("instances", nargs="*",
                        help=f"any of {', '.join(SEEDS)} (default: all)")
    parser.add_argument("--reports", type=argparse.FileType("w"),
                        help="write every run as a JSON line to this file")
    parser.add_argument("--compare", type=argparse.FileType("r"),
                        metavar="OLD",
                        help="compare every run with a --reports file")
    args = parser.parse_args()
    unknown = set(args.instances) - set(SEEDS)
    if unknown:
        parser.error(f"unknown instances {sorted(unknown)}")
    runs = sweep(args.instances or list(SEEDS), args.reports)
    if args.compare:
        compare(runs, args.compare)
