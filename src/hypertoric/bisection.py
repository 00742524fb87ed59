"""Level-by-level adaptive bisection of [0, 1], for the period quadrature
(mirror.period) and the transport propagators (connection.propagator)."""

import numpy as np


def bisect(evaluate, rows, tol, depth, panels, failure):
    """Bisect [0, 1] for every row of the array rows at once; returns one
    (rows, starts, splits) triple of passed intervals per level.

    evaluate(rows, s0, h) gets the N open intervals' rows and the starts
    and widths, shape (N, 3), of each one's whole, left and right half, and
    returns (whole, split), interval axis first.  An interval passes when
    every |whole - split| <= tol max(1, |split|); the rest are halved.
    Raises failure on a value that is not finite, past `panels` intervals
    in all, or with intervals still open after depth `depth`."""
    s0, s1 = np.zeros(len(rows)), np.ones(len(rows))
    count, levels = 0, []
    for _ in range(depth + 1):
        count += len(rows)
        if count > panels:
            raise failure("adaptive bisection panel budget exhausted")
        mid = 0.5 * (s0 + s1)
        whole, split = evaluate(
            rows, np.stack([s0, s0, mid], axis=1),
            np.stack([s1 - s0, mid - s0, s1 - mid], axis=1))
        if not (np.isfinite(whole).all() and np.isfinite(split).all()):
            raise failure("adaptive bisection met a value that is not finite")
        ok = (np.abs(whole - split) <= tol * np.maximum(1.0, np.abs(split))
              ).reshape(len(rows), -1).all(axis=1)
        levels.append((rows[ok], s0[ok], split[ok]))
        if ok.all():
            return levels
        bad = ~ok
        rows = np.repeat(rows[bad], 2)
        s0, s1 = (np.stack([s0[bad], mid[bad]], axis=1).ravel(),
                  np.stack([mid[bad], s1[bad]], axis=1).ravel())
    raise failure("adaptive bisection depth exhausted at s = "
                  f"{float(s0[0])!r}")
