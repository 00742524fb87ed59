"""Independent oracles for the benchmark's output checks.

Everything here is plain Python over `fractions.Fraction` and `ast`; nothing
imports the package under test, so a fault in its exact layers cannot hide
in the oracle.  Each `check_*` function returns a list of problems; an empty
list means the output was accepted.
"""

import ast
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

# Acceptance tolerances of the paper's numerical checks.
PERIOD_TOL = 1e-6
TRANSPORT_TOL = 1e-6
SPECTRA_TOL = {1: 1e-8, 2: 1e-6}


# ---------------------------------------------------------------- exact linear algebra


def rank(rows):
    """Rank over Q by Gaussian elimination."""
    M = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, len(M)):
            if M[i][c]:
                f = M[i][c] / M[r][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
    return r


def det(M):
    """Determinant over Q by Gaussian elimination."""
    M = [[Fraction(x) for x in r] for r in M]
    n = len(M)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            out = -out
        out *= M[c][c]
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] / M[c][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return out


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} over Q, from the reduced echelon form."""
    M = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -M[i][free]
        basis.append(x)
    return basis


def primitive(v):
    """Smallest integer multiple of a rational vector, sign kept."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints]


def columns(a, idx):
    return [[row[i] for i in idx] for row in a]


def lattice_contains(gens, b):
    """Whether the integer vector b lies in the Z-span of integer vectors."""
    echelon = {}                      # pivot position -> vector
    for g in gens:
        g = list(g)
        for p in range(len(g)):
            if not g[p]:
                continue
            if p not in echelon:
                echelon[p] = g
                break
            e = echelon[p]
            while g[p]:               # Euclid on the pivot entries
                t = e[p] // g[p]
                e, g = g, [x - t * y for x, y in zip(e, g)]
            echelon[p] = e
    b = list(b)
    for p in range(len(b)):
        if not b[p]:
            continue
        e = echelon.get(p)
        if e is None or b[p] % e[p]:
            return False
        t = b[p] // e[p]
        b = [x - t * y for x, y in zip(b, e)]
    return True


# ---------------------------------------------------------------- matroid data


def bases(a):
    """d-subsets of columns with nonzero determinant; their number is the
    rank of the cohomology ring of a smooth hypertoric variety."""
    d, n = len(a), len(a[0])
    return [S for S in combinations(range(n), d) if det(columns(a, S))]


def circuits(a, theta_hat):
    """Minimal dependent column sets with their primitive kernel vectors,
    oriented by theta_hat . beta > 0; 0-based, sorted by support."""
    n = len(a[0])
    found = []
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            if any(set(c["support"]) < set(S) for c in found):
                continue
            sub = columns(a, S)
            if rank(sub) == size:
                continue
            ker = nullspace(sub, size)
            if len(ker) != 1 or any(x == 0 for x in ker[0]):
                continue              # contains a smaller dependent set
            beta_s = primitive(ker[0])
            beta = [0] * n
            for pos, i in enumerate(S):
                beta[i] = beta_s[pos]
            if sum(t * b for t, b in zip(theta_hat, beta)) < 0:
                beta = [-x for x in beta]
            found.append({"support": S,
                          "plus": tuple(i for i in S if beta[i] > 0),
                          "minus": tuple(i for i in S if beta[i] < 0),
                          "beta": tuple(beta)})
    return sorted(found, key=lambda c: c["support"])


def kernel_coords(iota, beta):
    """Integer coordinates of a kernel vector in the basis iota (n x k)."""
    k = len(iota[0])
    aug = [list(row) + [b] for row, b in zip(iota, beta)]
    ns = nullspace(aug, k + 1)
    sol = next((v for v in ns if v[-1]), None)
    if sol is None:
        return None
    x = [-v / sol[-1] for v in sol[:-1]]
    if any(v.denominator != 1 for v in x):
        return None
    return [int(v) for v in x]


def check_kernel_basis(a, iota):
    """iota must be a saturated Z-basis of ker(a): a iota = 0, k = n - d
    independent columns, and its maximal minors coprime."""
    d, n = len(a), len(a[0])
    k = n - d
    if len(iota) != n or any(len(r) != k for r in iota):
        return [f"iota is not {n} x {k}"]
    for row in a:
        for col in range(k):
            if sum(row[i] * iota[i][col] for i in range(n)):
                return ["a @ iota != 0"]
    g = 0
    for S in combinations(range(n), k):
        g = gcd(g, int(det([iota[i] for i in S])))
    if g != 1:
        return [f"iota is not a saturated kernel basis (minor gcd {g})"]
    return []


# ---------------------------------------------------------------- rendered rational functions


_BINOPS = {ast.Add: lambda x, y: x + y, ast.Sub: lambda x, y: x - y,
           ast.Mult: lambda x, y: x * y, ast.Div: lambda x, y: x / y}


def evaluate(text, env):
    """Exact value of a rendered rational function (+ - * / **, integer
    literals, names from env) at Fraction values."""
    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return ev(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)):
            return ev(node.left) ** node.right.value
        raise ValueError(f"unexpected syntax in {text!r}")
    return ev(ast.parse(text, mode="eval"))


def matmul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def identity(r, scale=Fraction(1)):
    return [[scale if i == j else Fraction(0) for j in range(r)]
            for i in range(r)]


def product(mats, r):
    out = identity(r)
    for M in mats:
        out = matmul(out, M)
    return out


def sample_point(rng, d, k):
    """A seeded rational (h, c, q) point as an evaluation environment."""
    def draw():
        return Fraction(rng.randint(1, 97), rng.randint(1, 97)) * rng.choice((1, -1))
    env = {"h": draw()}
    env.update({f"c{j + 1}": draw() for j in range(d)})
    env.update({f"q{l + 1}": draw() for l in range(k)})
    return env


def check_matrices(a, circs, iota, rendered, seed):
    """Multiplication matrices A_i, rendered as rational functions of
    (h, c, q), evaluated exactly at a seeded rational point: they commute,
    sum_i a_ji A_i = c_j I, and every circuit relation
    prod_{S+} A_i prod_{S-} (hI - A_i) = q^beta prod_{S+} (hI - A_i) prod_{S-} A_i
    holds."""
    d, n = len(a), len(a[0])
    k = n - d
    if len(rendered) != n:
        return [f"{len(rendered)} matrices for {n} divisors"]
    rng = random.Random(seed)
    for _ in range(20):
        env = sample_point(rng, d, k)
        try:
            A = [[[evaluate(x, env) for x in row] for row in M] for M in rendered]
            break
        except ZeroDivisionError:
            continue
    else:
        return ["no regular rational evaluation point found"]
    r = len(A[0])
    if any(len(M) != r or any(len(row) != r for row in M) for M in A):
        return ["matrices are not square of one size"]
    problems = []
    for i in range(n):
        for j in range(i + 1, n):
            if matmul(A[i], A[j]) != matmul(A[j], A[i]):
                problems.append(f"A_{i + 1} and A_{j + 1} do not commute")
    for j in range(d):
        lhs = [[sum(a[j][i] * A[i][x][y] for i in range(n)) for y in range(r)]
               for x in range(r)]
        if lhs != identity(r, env[f"c{j + 1}"]):
            problems.append(f"linear relation {j + 1} fails")
    h = env["h"]
    hI = identity(r, h)
    hmA = [[[hI[x][y] - M[x][y] for y in range(r)] for x in range(r)] for M in A]
    for c in circs:
        bk = kernel_coords(iota, c["beta"])
        if bk is None:
            problems.append(f"beta of circuit {c['support']} not in the iota lattice")
            continue
        qb = Fraction(1)
        for l, e in enumerate(bk):
            qb *= env[f"q{l + 1}"] ** e
        left = product([A[i] for i in c["plus"]] + [hmA[i] for i in c["minus"]], r)
        right = product([hmA[i] for i in c["plus"]] + [A[i] for i in c["minus"]], r)
        if left != [[qb * x for x in row] for row in right]:
            problems.append(f"circuit relation {c['support']} fails")
    return problems


# ---------------------------------------------------------------- resonance


def minimal_saturated(n, circs):
    """Minimal nonempty Q in the doubled ground set {0..2n-1} that meet
    S^L = S+ u (S-)* exactly when they meet S^R = S- u (S+)*."""
    sides = []
    for c in circs:
        sides.append((set(c["plus"]) | {n + i for i in c["minus"]},
                      set(c["minus"]) | {n + i for i in c["plus"]}))
    found = []
    for size in range(1, 2 * n + 1):
        for Q in combinations(range(2 * n), size):
            Qs = set(Q)
            if any(m <= Qs for m in found):
                continue
            if all(bool(Qs & L) == bool(Qs & R) for L, R in sides):
                found.append(Qs)
    return found


def lin_complement(a, Q):
    """Generators of Lin(Q^c) in Q^{n+d}: e_i + a_i for i not in Q,
    e_i for i* not in Q."""
    d, n = len(a), len(a[0])
    gens = []
    for x in range(2 * n):
        if x in Q:
            continue
        row = [0] * (n + d)
        row[x % n] = 1
        if x < n:
            for j in range(d):
                row[n + j] = a[j][x]
        gens.append(row)
    return gens


def in_span_plus_lattice(v, gens):
    """Whether v lies in span_Q(gens) + Z^m: with N an integer basis of the
    orthogonal complement, iff N v is integral and in the Z-span of N's
    columns."""
    m = len(v)
    N = [primitive(x) for x in nullspace(gens, m)] if gens else \
        [[int(i == j) for j in range(m)] for i in range(m)]
    if not N:
        return True
    b = [sum(Fraction(x) * y for x, y in zip(row, v)) for row in N]
    if any(x.denominator != 1 for x in b):
        return False
    cols = [[row[i] for row in N] for i in range(m)]
    return lattice_contains(cols, [int(x) for x in b])


# ---------------------------------------------------------------- per-command report checks


def _support_set(cs):
    return sorted((tuple(c["support"]), tuple(c["plus"]), tuple(c["minus"]),
                   tuple(c["beta"])) for c in cs)


def check_check_report(rep, inst):
    res = rep["results"]
    own = [{"support": tuple(i + 1 for i in c["support"]),
            "plus": tuple(i + 1 for i in c["plus"]),
            "minus": tuple(i + 1 for i in c["minus"]),
            "beta": c["beta"]} for c in inst["circuits"]]
    problems = []
    if res["circuit_count"] != len(own) or len(res["circuits"]) != len(own):
        problems.append(f"circuit count {res['circuit_count']} != {len(own)}")
    elif _support_set(res["circuits"]) != _support_set(own):
        problems.append("circuit supports, signs or betas differ")
    if res["vertex_count"] != len(inst["bases"]):
        problems.append(f"vertex count {res['vertex_count']} != "
                        f"{len(inst['bases'])} bases")
    problems += check_kernel_basis(inst["a"], res["torus_data"]["iota"])
    return problems


def check_ring_report(rep, inst, iota, seed):
    res = rep["results"]
    nb = len(inst["bases"])
    if res["rank"] != nb or len(res["standard_basis"]) != nb:
        return [f"ring rank {res['rank']} != {nb} bases"]
    return check_matrices(inst["a"], inst["circuits"], iota,
                          res["multiplication_matrices"], seed)


def check_gkz_report(rep, inst):
    res = rep["results"]
    d = len(inst["a"])
    problems = []
    if res["operator_count"] != d + len(inst["circuits"]):
        problems.append(f"{res['operator_count']} GKZ operators, expected "
                        f"{d} linear + {len(inst['circuits'])} circuit")
    got = sorted(tuple(op["support"]) for op in res["operators"]
                 if op["kind"] == "circuit")
    want = sorted(tuple(i + 1 for i in c["support"]) for c in inst["circuits"])
    if got != want:
        problems.append("circuit operators do not match the circuits")
    sc = res["symbol_check"]
    if not (sc["symbols_reduce_to_zero"] and sc["generators_among_symbols"]):
        problems.append("symbol check flags false")
    return problems


def check_resonance_report(rep, inst, hbar, cvals):
    res = rep["results"]["resonance"]
    a = inst["a"]
    n = len(a[0])
    minimal = minimal_saturated(n, inst["circuits"])
    problems = []
    if res["minimal_saturated_count"] != len(minimal):
        problems.append(f"{res['minimal_saturated_count']} minimal saturated "
                        f"sets, expected {len(minimal)}")
    gen = rep["results"]["genericity"]
    if len(gen["per_Q"]) != len(minimal):
        problems.append("genericity covers the wrong number of sets")
    v = [Fraction(hbar)] * n + [Fraction(c) for c in cvals]
    resonant = [Q for Q in minimal if in_span_plus_lattice(v, lin_complement(a, Q))]
    if res["non_resonant"] != (not resonant):
        problems.append(f"verdict non_resonant={res['non_resonant']}, "
                        f"oracle finds {len(resonant)} resonant sets")
    return problems


def check_divisor_report(rep, inst):
    n = len(inst["a"][0])
    if len(rep["per_divisor"]) != n:
        return [f"{len(rep['per_divisor'])} divisors reported, expected {n}"]
    if not (rep["all_exact"] and all(e["exact"] for e in rep["per_divisor"])):
        return ["divisor formula not exact"]
    return []


def check_spectra(spec, inst, d):
    """compare_spectra report: one critical point per basis, deviation
    within the paper's tolerance for this d."""
    nb = len(inst["bases"])
    problems = []
    if spec["count"] != nb or spec["rank"] != nb:
        problems.append(f"{spec['count']} critical points / rank "
                        f"{spec['rank']}, expected {nb}")
    if not spec["max_deviation"] <= SPECTRA_TOL[d]:
        problems.append(f"spectra deviation {spec['max_deviation']:.3e} > "
                        f"{SPECTRA_TOL[d]:g}")
    return problems


def check_mirror_report(rep, inst, points):
    res = rep["results"]
    d = len(inst["a"])
    problems = []
    if len(res["q_points"]) != points:
        problems.append(f"{len(res['q_points'])} q points, expected {points}")
    if d == 1:
        pts = res["gkz_on_periods"]["points"]
        worst = max(p["max_relative_residual"] for p in pts)
        if not worst <= PERIOD_TOL:
            problems.append(f"period residual {worst:.3e} > {PERIOD_TOL:g}")
        dev = res["transport"]["max_relative_deviation"]
        if not dev <= TRANSPORT_TOL:
            problems.append(f"transport deviation {dev:.3e} > {TRANSPORT_TOL:g}")
    return problems + check_spectra(res["spectra"], inst, d)
