"""Benchmark of the `hypertoric` package, run from the repository root:

    python3 perfbench/run.py --workload exact_cold --seed 1 --seconds 20 --trace 0

Imports the package from ./src once, then runs whole rounds of the
workload's operations until --seconds have passed, each job in a fresh
forked process so every operation starts from a cold module state.  Every
output is checked against the oracles in oracles.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics
(end-to-end with --trace 0, per layer with --trace 1).  See README.md.
"""

import argparse
import gc
import io
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")     # per-run details, one file per run
SETUP_PROBES = 2             # extra cold set-ups in fresh interpreters
OP_TIMEOUT = 150.0           # seconds before a job's process is killed
MODULES = ("arrangement", "catalog", "cli", "connection", "exact", "mirror",
           "params", "quantum_ring", "resonance", "upoly")

# One process, one thread: the benchmark runs one operation at a time.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, HERE)


def set_up(workload, seed):
    """Import the package from ./src and build the workload's inputs."""
    sys.path.insert(0, SRC)
    import importlib
    pkg = importlib.import_module("hypertoric")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hypertoric imported from {pkg.__file__}, not {SRC}")
    for m in MODULES:
        importlib.import_module(f"hypertoric.{m}")
    import workloads
    return workloads.WORKLOADS[workload](sys.modules["hypertoric.catalog"], seed)


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter, as it reports it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------- one job, in a child


def invoke(call, prepared):
    """Run one operation; returns its output, timed around the call."""
    if call["kind"] == "cli":
        cli = sys.modules["hypertoric.cli"]
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = (io.StringIO(call["stdin"]),
                                             io.StringIO(), io.StringIO())
        try:
            t0 = time.perf_counter()
            try:
                code = cli.main(call["argv"])
            except SystemExit as e:      # argument errors exit from argparse
                code = e.code
            dt = time.perf_counter() - t0
            return {"exit": code, "stdout": sys.stdout.getvalue(), "seconds": dt}
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
    fn = getattr(sys.modules[f"hypertoric.{call['module']}"], call["fn"])
    t0 = time.perf_counter()
    result = fn(prepared, **call["kwargs"])
    return {"result": result, "seconds": time.perf_counter() - t0}


def child(job, trace):
    from spans import Tracer
    catalog = sys.modules["hypertoric.catalog"]
    prepared = [catalog.INSTANCES[c["instance"]]() if c["kind"] == "lib"
                else None for c in job]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    calls = []
    for call, prep in zip(job, prepared):
        t0 = time.perf_counter()
        try:
            out = invoke(call, prep)
        except Exception as e:           # reported as a failed operation
            out = {"exception": f"{type(e).__name__}: {e}",
                   "traceback": traceback.format_exc(),
                   "seconds": time.perf_counter() - t0}
        calls.append(out)
    return {"calls": calls, "trace": tracer and tracer.snapshot()}


def run_job(job, trace):
    """Fork, run the job, return (payload, peak RSS in MB of the child)."""
    gc.collect()                 # every child starts from the same heap state
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:                                  # child
        gc.unfreeze()            # the set-up heap ages as in a CLI process
        os.close(rfd)
        status = 0
        try:
            payload = json.dumps(child(job, trace), default=_jsonable).encode()
            with os.fdopen(wfd, "wb") as f:
                f.write(payload)
        except BaseException:
            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)
    os.close(wfd)
    chunks, deadline = [], time.monotonic() + OP_TIMEOUT
    with os.fdopen(rfd, "rb") as f:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([f], [], [], max(left, 0.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(f.fileno(), 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024.0
    if status != 0 or not chunks:
        err = {"exception": f"job process ended with status {status}"}
        return {"calls": [err] * len(job), "trace": None}, rss_mb
    return json.loads(b"".join(chunks)), rss_mb


def _jsonable(x):
    if hasattr(x, "item"):                        # numpy scalar
        return x.item()
    return str(x)


# ---------------------------------------------------------------- rounds


def run_round(jobs, insts, trace, problems):
    """Run every job once; returns per-operation times and failures, peak
    RSS, and summed per-layer metrics."""
    import workloads
    iotas = {}
    rss, layers, ops = 0.0, {}, []
    for job in jobs:
        payload, job_rss = run_job(job, trace)
        rss = max(rss, job_rss)
        for call, out in zip(job, payload["calls"]):
            label = f"{call['instance']} {call.get('argv') or call['fn']}"
            failed = workloads.program_failed(call, out)
            ops.append({"op": label, "seconds": out.get("seconds", 0.0),
                        "failed": failed})
            if failed:
                why = out.get("exception") or f"exit {out.get('exit')}"
                print(f"  failed: {label}: {why}", file=sys.stderr)
                continue
            problems += [f"{label}: {p}"
                         for p in workloads.verify(call, out, insts, iotas)]
        for key, val in (payload["trace"] or {}).items():
            layers[key] = layers.get(key, 0) + val
    return {"rss_mb": rss, "layers": layers, "ops": ops}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("exact_cold", "mirror_d1", "spectra_sweep"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "hypertoric")):
        print(f"error: no package source at {SRC}/hypertoric", file=sys.stderr)
        return 2

    if args.setup_probe:
        t0 = time.perf_counter()
        set_up(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    jobs, insts = set_up(args.workload, args.seed)
    setups.append(time.perf_counter() - t0)
    gc.collect()
    gc.freeze()                  # keeps the collection before each fork cheap

    # As many whole rounds as fit in --seconds, at least one.
    problems, rounds = [], []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(jobs, insts, args.trace, problems))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    for p in problems:
        print(f"  WRONG: {p}", file=sys.stderr)

    # each operation's median over the rounds, summed over the round
    wall = sum(statistics.median(r["ops"][i]["seconds"] for r in rounds)
               for i in range(len(rounds[0]["ops"])))
    per_round = [round(sum(o["seconds"] for o in r["ops"]), 3) for r in rounds]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"op time per round {per_round} s in {elapsed:.1f} s, "
          f"set-ups {[round(s, 3) for s in setups]} s, trace {args.trace}",
          file=sys.stderr)
    if args.trace:
        from spans import metric_names
        metrics = {}
        for name, unit in metric_names():
            vals = [r["layers"].get(name, 0) for r in rounds]
            if unit == "count" and len(set(vals)) > 1:
                print(f"  counts differ between rounds: {name} {vals}",
                      file=sys.stderr)
            value = vals[0] if unit == "count" else statistics.median(vals)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    ops = [o for r in rounds for o in r["ops"]]
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    detail = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(detail, "w") as f:
        json.dump({"args": vars(args), "setups_s": setups, "problems": problems,
                   "rounds": rounds, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
