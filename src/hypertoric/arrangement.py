"""Torus data, circuits, and the associated hyperplane arrangement.

Torus data is a d x n integer matrix `a` (columns a_1..a_n spanning Z^d)
together with an integer lift theta_hat in Z^n of the stability parameter.
The kernel of a is recorded by a saturated n x k integer matrix iota whose
columns are the canonical (HNF) Z-basis, so 0 -> Z^k -> Z^n -> Z^d -> 0 is
exact.

A circuit is a minimal dependent set S of columns.  Its kernel line carries a
primitive integer vector beta_S supported on S, oriented by
theta_hat . beta_S > 0; the induced signs split S = S+ u S-.  Stability data
with theta_hat . beta_S = 0 for some circuit sits on a wall and is refused.

These are integer questions and are answered over Z: beta_S, its iota
coordinates and the simplicity verdict are read off Hermite normal forms
(exact.py); only the vertex positions, which are rational, come from rref.
The circuits and vertices of a TorusData are computed once and shared, as
tuples.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import DimensionMismatch, NonGenericStability, RankDeficient
from .exact import (
    _pivot_rows,
    hermite_normal_form,
    integer_kernel_basis,
    rank_rational,
    rref,
    solve_integer,
    spans_lattice,
    transpose,
)


@dataclass(frozen=True)
class TorusData:
    a: tuple            # d x n, rows are tuples
    theta_hat: tuple    # length n
    iota: tuple         # n x k kernel basis, rows are tuples
    d: int
    n: int
    k: int
    surjective: bool

    def describe(self):
        return {
            "d": self.d,
            "n": self.n,
            "k": self.k,
            "a": [list(r) for r in self.a],
            "theta_hat": list(self.theta_hat),
            "iota": [list(r) for r in self.iota],
            "surjective": self.surjective,
        }


@dataclass(frozen=True)
class Circuit:
    support: tuple      # 0-based column indices, increasing
    plus: tuple         # S+ (indices with beta_i > 0)
    minus: tuple        # S- (beta_i < 0)
    beta: tuple         # primitive kernel vector in Z^n, theta_hat . beta > 0
    beta_k: tuple       # coordinates of beta in the iota basis (length k)

    @property
    def size(self):
        return len(self.support)


def build_torus_data(a, theta_hat):
    """Validate and freeze torus data; computes the canonical kernel basis.

    a must have rank d over Q.  `surjective` records whether its columns
    span Z^d (exact.spans_lattice); non-surjective full-rank data is
    allowed and classifies as non-unimodular downstream.
    """
    a = [list(map(int, row)) for row in a]
    d = len(a)
    if d == 0 or any(len(row) != len(a[0]) for row in a):
        raise DimensionMismatch("a must be a nonempty rectangular matrix")
    n = len(a[0])
    theta_hat = [int(x) for x in theta_hat]
    if len(theta_hat) != n:
        raise DimensionMismatch(
            f"theta_hat has length {len(theta_hat)}, expected n={n}")
    if rank_rational(a) < d:
        raise RankDeficient(f"a has rank < d={d} over Q")
    surjective = spans_lattice(a)
    iota_cols = integer_kernel_basis(a)  # n x k
    k = len(iota_cols[0]) if iota_cols and n else 0
    iota = tuple(tuple(row) for row in iota_cols) if k else tuple(() for _ in range(n))
    return TorusData(
        a=tuple(tuple(r) for r in a),
        theta_hat=tuple(theta_hat),
        iota=iota,
        d=d, n=n, k=k,
        surjective=surjective,
    )


def _columns(td, idx):
    return [[td.a[j][i] for i in idx] for j in range(td.d)]


def _augmented(td, idx):
    """Rows [a_i | -theta_i] over i in idx: the equations a_i . x = -theta_i
    of the hyperplanes idx."""
    return [[*(row[i] for row in td.a), -td.theta_hat[i]] for i in idx]


@cache
def enumerate_circuits(td):
    """All circuits of the column matroid of a, sorted lex by support.

    Enumerates supports in size-then-lex order, pruning supersets of found
    circuits, so each surviving dependent candidate is automatically minimal.
    No circuit of a rank-d matroid has more than d + 1 elements, so sizes
    stop there.
    Its kernel is read off H = U a_S^T: the rows of the unimodular U at the
    zero rows of H.  A minimal dependent S has exactly one, which is beta_S
    and primitive because U is unimodular.  Raises NonGenericStability if
    theta_hat pairs to zero with some circuit.
    """
    found = []
    for size in range(1, min(td.n, td.d + 1) + 1):
        for S in combinations(range(td.n), size):
            if any(set(c.support) <= set(S) for c in found):
                continue
            H, U = hermite_normal_form(transpose(_columns(td, S)))
            kernel = [u for h, u in zip(H, U) if not any(h)]
            if not kernel:
                continue
            (beta_s,) = kernel  # a second row would mean a smaller circuit
            beta = [0] * td.n
            for pos, i in enumerate(S):
                beta[i] = beta_s[pos]
            pairing = sum(t * b for t, b in zip(td.theta_hat, beta))
            if pairing == 0:
                raise NonGenericStability(
                    f"theta_hat pairs to zero with circuit {tuple(i + 1 for i in S)}")
            if pairing < 0:
                beta = [-x for x in beta]
            found.append(Circuit(
                support=S,
                plus=tuple(i for i in S if beta[i] > 0),
                minus=tuple(i for i in S if beta[i] < 0),
                beta=tuple(beta),
                beta_k=tuple(solve_integer(td.iota, beta))))
    return tuple(sorted(found, key=lambda c: c.support))


def classify(td):
    """Report {simple, unimodular, smooth} for the arrangement of td.

    simple: every subset of hyperplanes with nonempty common intersection
    meets in codimension = its size (checked brute force up to size d+1).
    One Hermite form of the rows [a_i | -theta_i] answers both: a pivot in
    the last column means the intersection is empty, otherwise the pivots
    count the codimension.
    unimodular: every independent d-subset of columns has determinant +-1,
    that is, spans Z^d (exact.spans_lattice).
    """
    simple = True
    for size in range(2, td.d + 2):
        for S in combinations(range(td.n), size):
            pivots = [c for _, c in
                      _pivot_rows(hermite_normal_form(_augmented(td, S),
                                                      transform=False)[0])]
            if pivots and pivots[-1] == td.d:
                continue  # empty intersection
            if len(pivots) != size:
                simple = False
                break
        if not simple:
            break
    unimodular = True
    for S in combinations(range(td.n), td.d):
        sub = _columns(td, S)
        if rank_rational(sub) == td.d and not spans_lattice(sub):
            unimodular = False
            break
    return {"simple": simple, "unimodular": unimodular,
            "smooth": simple and unimodular}


@dataclass(frozen=True)
class Vertex:
    basis: tuple    # d-subset of column indices
    position: tuple  # Fractions, the common point of the d hyperplanes


@cache
def vertices(td):
    """Vertices of the arrangement: one per independent d-subset of columns.

    Meaningful for simple arrangements (then these are exactly the vertices
    and their count is the ring rank).  Each position is the last column of
    the rref of the rows [a_i | -theta_i], eliminated on the first d columns.
    """
    out = []
    for S in combinations(range(td.n), td.d):
        R, pivots = rref(_augmented(td, S), ncols=td.d)
        if len(pivots) == td.d:
            out.append(Vertex(basis=S, position=tuple(r[td.d] for r in R)))
    return tuple(out)


def root_hyperplanes(td):
    """For each circuit S, the hyperplane in t^k spanned by {iota_i : i not in S}.

    Returns a list of (circuit, spanning_rows) where spanning_rows are the
    iota rows off the support; their span must be a hyperplane (dim k-1),
    and beta_S in iota coordinates pairs to zero with each of them.
    """
    out = []
    for c in enumerate_circuits(td):
        rows = [list(td.iota[i]) for i in range(td.n) if i not in c.support]
        if td.k and rank_rational(rows) != td.k - 1:
            raise DimensionMismatch(
                f"complement of circuit {c.support} does not span a hyperplane")
        for r in rows:
            if sum(x * y for x, y in zip(r, c.beta_k)) != 0:
                raise AssertionError("beta_k not orthogonal to complement rows")
        out.append((c, rows))
    return out
