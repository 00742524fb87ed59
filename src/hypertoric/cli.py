"""Command line front end.

JSON in, JSON report on stdout, human summary on stderr.  Input schema:

    {
      "a": [[int, ...], ...],          # d x n integer matrix
      "theta_hat": [int, ...],         # length n
      "params": {                      # optional, needed by some commands
        "hbar": "p/q",                 # exact fraction (string or int)
        "c": ["p/q", ...],             # length d
        "q": [[re, im], ...]           # one point in (C*)^n, or a list of
      }                                #   such points for mirror-verify
    }

Options are read off one table, COMMANDS: --opt value or --opt=value,
any unique prefix of an option the command takes, --help per command and
at the top level.  Exit codes: 0 all pass flags true, 1 some check failed,
2 input or usage error, 3 computation error.  All randomness is driven by --seed; reports are
byte-identical across runs up to the wall_ms field.
"""

import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .arrangement import (build_torus_data, classify, enumerate_circuits,
                          root_hyperplanes, vertices)
from .errors import HypertoricError

OK, FAIL, INPUT_ERROR, COMPUTE_ERROR = 0, 1, 2, 3


class InputError(Exception):
    pass


# ---------------------------------------------------------------- input


def _load_json(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as f:
                text = f.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON: {e}")


def _is_int(x):
    """A JSON integer: json.loads makes true and false bools, which are
    ints to Python."""
    return isinstance(x, int) and not isinstance(x, bool)


def _validate(data):
    if not isinstance(data, dict):
        raise InputError("top level must be an object")
    for key in ("a", "theta_hat"):
        if key not in data:
            raise InputError(f"missing required key '{key}'")
    a = data["a"]
    if (not isinstance(a, list) or not a or
            not all(isinstance(r, list) and r for r in a) or
            not all(_is_int(x) for r in a for x in r)):
        raise InputError("'a' must be a nonempty matrix of integers")
    th = data["theta_hat"]
    if not isinstance(th, list) or not all(_is_int(x) for x in th):
        raise InputError("'theta_hat' must be a list of integers")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise InputError("'params' must be an object")
    return data


def _torus(data):
    try:
        return build_torus_data(data["a"], data["theta_hat"])
    except HypertoricError as e:
        # bad matrix shapes / rank are input problems, not math failures
        raise InputError(str(e))


def _fraction(value, what):
    if isinstance(value, (bool, float)):
        raise InputError(f"{what} must be an exact fraction, got "
                         f"{type(value).__name__}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise InputError(f"{what}: cannot parse {value!r} as a fraction")


def _exact_params(data, args, td):
    """(hbar, cvals) as Fractions; flags override the input file."""
    params = data.get("params", {})
    hbar = args.hbar if args.hbar is not None else params.get("hbar")
    craw = args.c if args.c is not None else params.get("c")
    if hbar is None or craw is None:
        raise InputError(
            "this command needs exact parameters: provide params.hbar and "
            "params.c in the input file, or --hbar / --c flags")
    if isinstance(craw, str):
        craw = craw.split(",")
    if not isinstance(craw, list):
        raise InputError(f"c must be a list of exact fractions, got {craw!r}")
    cvals = [_fraction(x, "c") for x in craw]
    if len(cvals) != td.d:
        raise InputError(f"need {td.d} values in c, got {len(cvals)}")
    return _fraction(hbar, "hbar"), cvals


def _q_points(data, args, td):
    """List of complex q vectors (length n each) for mirror verification."""
    import numpy as np
    if args.points < 1:
        raise InputError(f"--points must be at least 1, got {args.points}")
    params = data.get("params", {})
    raw = params.get("q")
    if raw is None:
        rng = np.random.default_rng(args.seed)
        pts = []
        for _ in range(args.points):
            mod = 0.15 + 0.3 * rng.random(td.n)
            pts.append(mod * np.exp(2j * np.pi * rng.random(td.n)))
        return pts
    if (not isinstance(raw, list) or not raw or
            not all(isinstance(p, list) and p for p in raw)):
        raise InputError("params.q must be a nonempty list of [re, im] "
                         "pairs or a list of such points")
    points = raw if isinstance(raw[0][0], list) else [raw]
    out = []
    for pt in points:
        if len(pt) != td.n or not all(
                isinstance(z, list) and len(z) == 2 and
                all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    and math.isfinite(x) for x in z) for z in pt):
            raise InputError(
                f"each q point must be {td.n} [re, im] pairs of finite "
                f"numbers")
        out.append(np.array([complex(z[0], z[1]) for z in pt]))
    return out


# ---------------------------------------------------------------- output


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "item"):  # numpy scalar
        return _jsonable(x.item())
    return x


def _digest(data):
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _emit(report, t0):
    report["wall_ms"] = int(1000 * (time.monotonic() - t0))
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    flags = [c["pass"] for c in report.get("checks", [])]
    verdict = "PASS" if report["pass"] else "FAIL"
    print(f"[{report['command']}] {verdict} "
          f"({sum(flags)}/{len(flags)} checks)", file=sys.stderr)
    for c in report.get("checks", []):
        mark = "ok " if c["pass"] else "FAIL"
        detail = c.get("detail", "")
        print(f"  {mark} {c['name']}" + (f": {detail}" if detail else ""),
              file=sys.stderr)
    return OK if report["pass"] else FAIL


def _skeleton(command, data, args):
    return {
        "command": command,
        "input_digest": _digest(data),
        "seed": args.seed,
        "versions": {"hypertoric": __version__},
        "checks": [],
        "pass": True,
    }


def _check(report, name, ok, detail=""):
    report["checks"].append({"name": name, "pass": bool(ok),
                             "detail": detail})
    report["pass"] = report["pass"] and bool(ok)


# ---------------------------------------------------------------- commands


def cmd_check(data, args, t0):
    td = _torus(data)
    cls = classify(td)
    circuits = enumerate_circuits(td)
    verts = vertices(td)
    report = _skeleton("check", data, args)
    report["results"] = {
        "torus_data": td.describe(),
        "classification": cls,
        "circuits": [{
            "support": [i + 1 for i in c.support],
            "plus": [i + 1 for i in c.plus],
            "minus": [i + 1 for i in c.minus],
            "beta": list(c.beta),
        } for c in circuits],
        "circuit_count": len(circuits),
        "vertices": [{"basis": [i + 1 for i in v.basis],
                      "position": [str(x) for x in v.position]}
                     for v in verts],
        "vertex_count": len(verts),
    }
    _check(report, "simple", cls["simple"])
    _check(report, "unimodular", cls["unimodular"])
    _check(report, "smooth", cls["smooth"])
    if cls["smooth"]:
        try:
            root_hyperplanes(td)
            _check(report, "root_hyperplanes", True,
                   "complement of every circuit spans a hyperplane")
        except HypertoricError as e:
            _check(report, "root_hyperplanes", False, str(e))
    return _emit(report, t0)


def _factored_relation(td, circuit):
    def prod(items):
        return "*".join(items) if items else "1"
    left = prod([f"u{i + 1}" for i in circuit.plus] +
                [f"(h-u{i + 1})" for i in circuit.minus])
    right = prod([f"(h-u{i + 1})" for i in circuit.plus] +
                 [f"u{i + 1}" for i in circuit.minus])
    beta = "(" + ",".join(str(b) for b in circuit.beta) + ")"
    return f"{left} - q^{beta}*{right}"


def cmd_ring(data, args, t0):
    from .quantum_ring import ring
    td = _torus(data)
    mode = "classical" if args.classical else "quantum"
    pres = ring(td).presentation(mode)
    names = [f"u{i + 1}" for i in range(td.n)]
    render = lambda p: p.render(names, coeff_str=pres.field.render)
    report = _skeleton("ring", data, args)
    results = {
        "mode": mode,
        "rank": pres.rank,
        "standard_basis": [list(m) for m in pres.std],
        "generators": [render(g) for g in pres.generators],
        "groebner_basis": pres.relation_strings(),
    }
    if mode == "quantum":
        results["circuit_relations_factored"] = [
            _factored_relation(td, c) for c in pres.circuits]
    if args.matrices:
        results["multiplication_matrices"] = [
            [[pres.field.render(x) for x in row]
             for row in pres.multiplication_matrix(i)]
            for i in range(td.n)]
    report["results"] = results
    nverts = len(vertices(td))
    _check(report, "rank_equals_vertex_count", pres.rank == nverts,
           f"rank {pres.rank}, vertices {nverts}")
    _check(report, "staircase_closed",
           _staircase_closed(pres.std), "standard basis is a staircase")
    return _emit(report, t0)


def _staircase_closed(std):
    stdset = set(std)
    for m in std:
        for i in range(len(m)):
            if m[i]:
                low = tuple(e - (j == i) for j, e in enumerate(m))
                if low not in stdset:
                    return False
    return True


def cmd_gkz(data, args, t0):
    from .quantum_ring import GkzCircuit, gkz_system, ring, symbol_check
    td = _torus(data)
    pres = ring(td).quantum
    ops = gkz_system(td)
    report = _skeleton("gkz", data, args)
    op_list = []
    for op in ops:
        if isinstance(op, GkzCircuit):
            c = op.circuit
            op_list.append({
                "kind": "circuit",
                "support": [i + 1 for i in c.support],
                "description": "prod_{S+} nabla_i prod_{S-} (h - nabla_i) - "
                               "q^beta prod_{S+} (h - nabla_i) "
                               "prod_{S-} nabla_i",
                "beta": list(c.beta),
            })
        else:
            op_list.append({
                "kind": "linear",
                "row": op.j + 1,
                "coefficients": list(op.coeffs),
                "description": f"sum_i a[{op.j + 1}][i] nabla_i - c{op.j + 1}",
            })
    sc = symbol_check(pres)
    report["results"] = {"operators": op_list,
                         "operator_count": len(ops),
                         "symbol_check": sc}
    _check(report, "symbols_reduce_to_zero", sc["symbols_reduce_to_zero"],
           "every GKZ symbol lies in the quantum ideal (exact)")
    _check(report, "generators_among_symbols", sc["generators_among_symbols"],
           "every defining relation appears as a symbol")
    return _emit(report, t0)


def cmd_mirror_verify(data, args, t0):
    from .mirror import (check_hbar, compare_spectra, transport_consistency,
                         verify_gkz_on_periods)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be finite and positive, got {args.tol}")
    if args.seed < 0:
        raise InputError(f"--seed must be at least 0, got {args.seed}")
    td = _torus(data)
    hbar, cvals = _exact_params(data, args, td)
    check_hbar(hbar)
    qpts = _q_points(data, args, td)
    report = _skeleton("mirror-verify", data, args)
    results = {"hbar": str(hbar), "c": [str(c) for c in cvals],
               "q_points": [[ [z.real, z.imag] for z in q] for q in qpts]}

    if td.d == 1:
        gkz, frames = verify_gkz_on_periods(td, hbar, cvals, qpts,
                                            tol=args.tol)
        results["gkz_on_periods"] = gkz
        worst = max(p["max_relative_residual"] for p in gkz["points"])
        _check(report, "gkz_annihilates_periods",
               worst <= args.tol,
               f"max relative residual {worst:.3e} <= {args.tol:g}")
        ranks = [p["period_matrix_rank"] for p in gkz["points"]]
        cycs = [p["cycles"] for p in gkz["points"]]
        _check(report, "period_matrix_rank", ranks == cycs,
               f"ranks {ranks} == cycle counts {cycs}")
    else:
        results["gkz_on_periods"] = {
            "skipped": "period contours implemented for one integration "
                       "variable (d = 1)"}

    spectra = compare_spectra(td, hbar, cvals, qpts[0], seed=args.seed,
                              tol=args.tol)
    results["spectra"] = spectra
    _check(report, "spectra_match", spectra["pass"],
           f"{spectra['count']} eigenvalues, max deviation "
           f"{spectra['max_deviation']:.3e} <= {args.tol:g}")

    if td.d == 1:
        # short seeded displacement: transport along straight log-q paths is
        # branch-matched for moderate moves, not arbitrary far pairs
        import numpy as np
        rng = np.random.default_rng(args.seed + 987)
        delta = 0.12 * (rng.random(td.n) - 0.5) + \
            0.12j * (rng.random(td.n) - 0.5)
        q1 = qpts[0] * np.exp(delta)
        # the q0 frame is the staircase part of the GKZ table at qpts[0]
        tc = transport_consistency(td, hbar, cvals, qpts[0], q1,
                                   tol=args.tol, frame=frames[0])
        results["transport"] = tc
        _check(report, "transport_consistent", tc["pass"],
               f"max relative deviation "
               f"{tc['max_relative_deviation']:.3e} <= {args.tol:g}")
    report["results"] = results
    return _emit(report, t0)


def cmd_resonance(data, args, t0):
    from .resonance import genericity_check, is_non_resonant
    td = _torus(data)
    hbar, cvals = _exact_params(data, args, td)
    report = _skeleton("resonance", data, args)
    res = is_non_resonant(td, hbar, cvals)
    gen = genericity_check(td)
    report["results"] = {"hbar": str(hbar), "c": [str(c) for c in cvals],
                         "resonance": res, "genericity": gen}
    _check(report, "non_resonant", res["non_resonant"],
           "exact verdict over Q" if res["non_resonant"]
           else f"resonant, witness Q = {res['witness']['Q']}")
    _check(report, "genericity", gen["pass"],
           "non-resonant parameters are Zariski-dense")
    return _emit(report, t0)


# ---------------------------------------------------------------- driver


PROG = "hypertoric"
DESCRIPTION = ("Equivariant quantum cohomology of smooth hypertoric "
               "varieties: rings, connections, GKZ systems, mirror "
               "verification.")
# The options each command reads: name -> (type, default, help), where the
# type is int, float or str for an option that takes a value and None for
# a flag.  argv is scanned against this table and nothing else.
SEED = {"seed": (int, 0, "seed for all randomized choices (default 0)")}
EXACT = {
    "hbar": (str, None, "exact fraction p/q, overrides params.hbar"),
    "c": (str, None, "comma-separated exact fractions, overrides params.c"),
}
TOP = {"version": (None, None, "show program's version number and exit")}

COMMANDS = {
    "check": (cmd_check, "classification, circuits, vertices, root "
                         "hyperplanes", SEED),
    "ring": (cmd_ring, "ring presentation, standard basis, multiplication "
                       "matrices", {
        **SEED,
        "classical": (None, False,
                      "the classical ring instead of the quantum one"),
        "matrices": (None, False,
                     "include multiplication matrices in the report")}),
    "gkz": (cmd_gkz, "GKZ operators and exact symbol check", SEED),
    "mirror-verify": (cmd_mirror_verify, "periods, GKZ residuals, spectra, "
                                         "transport", {
        **SEED, **EXACT,
        "tol": (float, 1e-6, "numeric tolerance for pass/fail checks, a "
                             "finite positive number"),
        "points": (int, 3,
                   "number of seeded q points when params.q is absent")}),
    "resonance": (cmd_resonance, "exact non-resonance verdict",
                  {**SEED, **EXACT}),
}


def _table(command):
    return TOP if command is None else COMMANDS[command][2]


def _flag(name, kind):
    return f"--{name}" + ("" if kind is None else f" {name.upper()}")


def _usage(command):
    if command is None:
        return f"usage: {PROG} [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    opts = "".join(f" [{_flag(name, kind)}]"
                   for name, (kind, _, _) in _table(command).items())
    return f"usage: {PROG} {command} [-h]{opts} input"


def _fail(command, message):
    """A usage error: usage line and message on stderr, exit status 2."""
    prog = PROG if command is None else f"{PROG} {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(INPUT_ERROR)


def _help(command):
    """Usage and every option of the table on stdout, exit status 0."""
    if command is None:
        lines = [DESCRIPTION, "", "commands:"] + [
            f"  {name:<20}{info[1]}" for name, info in COMMANDS.items()]
    else:
        lines = [COMMANDS[command][1], "", "positional arguments:",
                 f"  {'input':<20}input JSON file, or - for stdin"]
    rows = [("-h, --help", "show this help message and exit")] + [
        (_flag(name, kind), text)
        for name, (kind, _, text) in _table(command).items()]
    lines += ["", "options:"] + [f"  {flag:<20}{text}" for flag, text in rows]
    print(_usage(command), "", *lines, sep="\n")
    raise SystemExit(OK)


def _scan(tokens, command, unknown):
    """Read tokens in order against the options of command (None: the top
    level, which stops at the command name).  Returns the option values
    and the positionals; unknown options are collected in unknown.

    --name value and --name=value both work, a unique prefix of a name
    stands for it, and the token after an option that takes a value is
    that value whatever its first character.  After --, every token is a
    positional."""
    table = _table(command)
    values = {name: default for name, (_, default, _) in table.items()}
    names = ("help", *table)
    positionals = []
    options = True
    for tok in tokens:
        if not options or tok[:1] != "-" or tok == "-":
            positionals.append(tok)
            if command is None:
                break
            continue
        if tok == "--":
            options = False
            continue
        if tok == "-h":
            _help(command)
        if tok[:2] != "--":
            unknown.append(tok)
            continue
        key, eq, value = tok[2:].partition("=")
        hits = [key] if key in names else [n for n in names
                                           if n.startswith(key)]
        if not hits:
            unknown.append(tok)
            continue
        if len(hits) > 1:
            _fail(command, f"ambiguous option: --{key} could match "
                           + ", ".join(f"--{n}" for n in hits))
        name = hits[0]
        kind = None if name == "help" else table[name][0]
        if kind is None:
            if eq:
                _fail(command, f"argument --{name}: ignored explicit "
                               f"argument {value!r}")
            if name == "help":
                _help(command)
            if name == "version":
                print(__version__)
                raise SystemExit(OK)
            values[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                _fail(command, f"argument --{name}: expected one argument")
        try:
            values[name] = kind(value)
        except ValueError:
            _fail(command, f"argument --{name}: invalid {kind.__name__} "
                           f"value: {value!r}")
    return values, positionals


def parse_args(argv):
    """The command line as the commands read it, scanned against COMMANDS:
    command, input and one attribute per option of the command.  A usage
    error prints a usage line and the error on stderr and raises
    SystemExit(2); --help and --version print and raise SystemExit(0)."""
    tokens = iter(argv)
    unknown = []
    _, found = _scan(tokens, None, unknown)
    if not found:
        _fail(None, "the following arguments are required: command")
    command = found[0]
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    values, positionals = _scan(tokens, command, unknown)
    if not positionals:
        _fail(command, "the following arguments are required: input")
    unknown += positionals[1:]
    if unknown:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, input=positionals[0], **values)


def main(argv=None):
    t0 = time.monotonic()
    # numpy's matrices here are small, and a BLAS thread pool costs more
    # than it saves; numpy is imported lazily, after this, and a value the
    # user set is kept
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        data = _validate(_load_json(args.input))
        return COMMANDS[args.command][0](data, args, t0)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except HypertoricError as e:
        print(f"computation error ({type(e).__name__}): {e}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
