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

The arrangement is the hyperplanes a_i . x = -theta_i.  Everything about it
is read over Z, in one pass over the sets of at most d + 1 columns, one
Hermite form each (exact.py): the circuits with their beta_S and the walls,
the basis determinants, and the vertex positions by back substitution.  The
iota coordinates of beta_S come by forward substitution on iota^T, which is
a Hermite form already, so they take no elimination.  The arrangement is
simple exactly when no circuit is a wall (Hausel-Sturmfels,
Toric hyperkaehler varieties), and unimodular when every basis has
determinant +-1.  The pass runs once per TorusData and its results are
shared, as tuples.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import prod

from .errors import DimensionMismatch, NonGenericStability, RankDeficient
from .exact import (
    _pivot_rows,
    back_substitute,
    forward_substitute,
    hermite_normal_form,
    rank_rational,
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


@dataclass(frozen=True)
class Vertex:
    basis: tuple    # d-subset of column indices
    position: tuple  # Fractions, the common point of the d hyperplanes


def build_torus_data(a, theta_hat):
    """Validate and freeze torus data; computes the canonical kernel basis.

    One Hermite form H = U a^T answers all three questions: a has rank d
    over Q when H has d nonzero rows, its columns span Z^d (`surjective`)
    when every pivot is 1, and the rows of U below them are a Z-basis of
    ker a, which a second Hermite form makes canonical.  Non-surjective
    full-rank data is allowed and classifies as non-unimodular downstream.
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
    H, U = hermite_normal_form(transpose(a))
    pivots = [row[c] for row, c in _pivot_rows(H)]
    if len(pivots) < d:
        raise RankDeficient(f"a has rank < d={d} over Q")
    kernel, _ = hermite_normal_form(U[d:], transform=False)  # k x n
    return TorusData(
        a=tuple(tuple(r) for r in a),
        theta_hat=tuple(theta_hat),
        iota=tuple(zip(*kernel)) if kernel else ((),) * n,
        d=d, n=n, k=n - d,
        surjective=all(x == 1 for x in pivots),
    )


@cache
def _subsets(td):
    """The one pass over the sets S of at most d + 1 columns, in size-then-
    lex order, each read off one Hermite form H = U a_S^T; no circuit of a
    rank-d matroid has more than d + 1 elements.

    The rows of U at the zero rows of H span the kernel of a_S.  S is a
    circuit exactly when there is one such row and it has no zero entry:
    it is then beta_S up to sign, primitive because U is unimodular.  A
    circuit with theta_hat . beta_S = 0 is a wall; any other has iota
    coordinates beta_k solving iota beta_k = beta_S, by forward
    substitution on iota^T.  A d-set with no zero row is a basis:
    |det a_S| is the product of the pivots of H, and its vertex solves
    H x = -U theta_S by back substitution.

    Returns (circuits sorted lex by support, wall supports in pass order,
    whether every basis has determinant +-1, vertices).
    """
    circuits, walls, verts = [], [], []
    unimodular = True
    iota_t = transpose(td.iota)  # k x n, a row Hermite form
    for size in range(1, min(td.n, td.d + 1) + 1):
        for S in combinations(range(td.n), size):
            H, U = hermite_normal_form([[row[i] for row in td.a] for i in S])
            kernel = [u for h, u in zip(H, U) if not any(h)]
            if not kernel and size == td.d:
                unimodular = unimodular and prod(
                    H[r][r] for r in range(size)) == 1
                rhs = [-sum(u * td.theta_hat[i] for u, i in zip(row, S))
                       for row in U]
                verts.append(Vertex(basis=S,
                                    position=tuple(back_substitute(H, rhs))))
            elif len(kernel) == 1 and all(kernel[0]):
                beta = [0] * td.n
                for i, b in zip(S, kernel[0]):
                    beta[i] = b
                pairing = sum(t * b for t, b in zip(td.theta_hat, beta))
                if pairing == 0:
                    walls.append(S)
                    continue
                if pairing < 0:
                    beta = [-x for x in beta]
                circuits.append(Circuit(
                    support=S,
                    plus=tuple(i for i in S if beta[i] > 0),
                    minus=tuple(i for i in S if beta[i] < 0),
                    beta=tuple(beta),
                    beta_k=tuple(forward_substitute(iota_t, beta))))
    return (tuple(sorted(circuits, key=lambda c: c.support)), tuple(walls),
            unimodular, tuple(verts))


def enumerate_circuits(td):
    """All circuits of the column matroid of a, sorted lex by support, with
    beta_S oriented by theta_hat . beta_S > 0.  Raises NonGenericStability,
    naming the first wall in size-then-lex order, if theta_hat pairs to
    zero with some circuit."""
    circuits, walls, _, _ = _subsets(td)
    if walls:
        raise NonGenericStability(
            f"theta_hat pairs to zero with circuit "
            f"{tuple(i + 1 for i in walls[0])}")
    return circuits


def classify(td):
    """Report {simple, unimodular, smooth} for the arrangement of td.

    simple: every set of hyperplanes with a nonempty common intersection
    meets in codimension = its size.  A dependent set that meets contains
    a circuit that meets, and the hyperplanes of a circuit S meet exactly
    when theta_hat . beta_S = 0, so simple means that no circuit is a wall.
    unimodular: every basis of d columns has determinant +-1.
    """
    _, walls, unimodular, _ = _subsets(td)
    return {"simple": not walls, "unimodular": unimodular,
            "smooth": not walls and unimodular}


def vertices(td):
    """Vertices of the arrangement: one per basis of d columns, in lex
    order, the common point of its d hyperplanes.

    Meaningful for simple arrangements (then these are exactly the vertices
    and their count is the ring rank).
    """
    return _subsets(td)[3]


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
