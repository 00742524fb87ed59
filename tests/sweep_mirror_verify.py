"""Seeded sweep of d = 1 `mirror-verify` over the CLI's own draws.

Runs `hypertoric mirror-verify <instance> --seed s --points 1` in-process,
with h = 1/3 and c = 1/5, over

    t_star_p1 seeds 0-299, a_tilde_1 0-199, a_tilde_2 0-99, a_tilde_3 0-299,

and prints every non-zero exit with its transport deviation (exit 1) or
its error (exit 3), then a count per instance.  Not part of the test suite
(pytest does not collect this file); a full sweep takes a few minutes.

    PYTHONPATH=src python tests/sweep_mirror_verify.py [--reports FILE]
        [--compare OLD] [instance ...]

--reports writes one JSON line per run (instance, seed, exit code and the
report without wall_ms), so that two sweeps can be compared run by run.
--compare reads such a file from an earlier sweep and, after this sweep,
prints every run whose exit code differs from it, the largest change
in transport.max_relative_deviation over the runs both report, and how
many runs' reports differ from the stored ones in any field.
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
         "a_tilde_2": range(100), "a_tilde_3": range(300)}


def run(path, seed):
    """(exit code, report or None, stderr) of one mirror-verify run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mirror-verify", str(path), "--hbar", "1/3", "--c", "1/5",
                     "--seed", str(seed), "--points", "1"])
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
                code, report, err = run(path, seed)
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


def transport_deviation(report):
    if report is None or "transport" not in report["results"]:
        return None
    return report["results"]["transport"]["max_relative_deviation"]


def compare(runs, old):
    """Print each run of runs whose exit code differs from the same run in
    old (an open --reports file), the largest change of the transport
    deviation over the runs both report, and the count of runs whose
    report differs in any field."""
    changed, moved, differ, worst = 0, 0, 0, None
    for line in old:
        rec = json.loads(line)
        key = rec["instance"], rec["seed"]
        if key not in runs:
            continue
        code, report = runs[key]
        differ += report != rec["report"]
        if code != rec["exit"]:
            changed += 1
            print(f"{key[0]} seed {key[1]}: exit {rec['exit']} -> {code}")
        new, was = transport_deviation(report), transport_deviation(
            rec["report"])
        if new is not None and was is not None:
            moved += 1
            if worst is None or abs(new - was) > worst[0]:
                worst = abs(new - was), key
    print(f"{changed} changed exit codes", flush=True)
    if worst is not None:
        print(f"largest change of transport.max_relative_deviation over "
              f"{moved} runs: {worst[0]:.3e} ({worst[1][0]} seed "
              f"{worst[1][1]})", flush=True)
    print(f"{differ} runs whose report differs in any field", flush=True)


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
