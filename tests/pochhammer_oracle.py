"""The 24-piece oracle of the Pochhammer periods.

mirror.period integrates a Pochhammer cycle (loop_a, loop_b) over its two
simple loops only and combines the loop integrals with the loops'
monodromy factors.  This oracle integrates the commutator itself, loop_a
loop_b loop_a^{-1} loop_b^{-1}: its 24 pieces are one chain of branch
states from the cycle's base state, which must close up, and they are
integrated with the package's Gauss-Legendre rule and bisection, at
mirror's QUAD_DEPTH and under a cap of 4096 intervals per cycle.
"""

import math

import numpy as np

from hypertoric.bisection import bisect
from hypertoric.errors import BranchTrackingFailure, QuadratureFailure
from hypertoric.mirror import (_GL_NODES, _GL_WEIGHTS, QUAD_DEPTH, QUAD_TOL,
                               _base_points, _continue_logs, _log,
                               _log_args, _pieces_at, _principal_state)

PANELS = 4096    # Gauss-Legendre intervals one cycle may evaluate


def inverse(loop):
    """The loop traversed backwards, as five per-piece arrays."""
    a, b, r, th0, dth = loop
    return (a + b)[::-1], -b[::-1], r[::-1], (th0 + dth)[::-1], -dth[::-1]


def commutator_period(model, cycle, insertions, tol=QUAD_TOL, state0=None):
    """The period of Omega times each insertion (None meaning Omega itself)
    over the commutator of cycle = (loop_a, loop_b), from the branch state
    state0 at the base point (the principal one by default); returns one
    value per insertion.  Raises BranchTrackingFailure if the branch state
    does not return to state0."""
    la, lb = cycle
    contour = tuple(np.concatenate(g)
                    for g in zip(la, lb, inverse(la), inverse(lb)))
    pieces = len(contour[0])
    if state0 is None:
        state0 = _principal_state(model, _base_points([cycle]))[:, 0]
    exps = np.array(model.exponents())
    K, anchors, states = _continue_logs(
        lambda rows, s: _log_args(
            exps, model.qn, _pieces_at(contour, rows[:, None], s)[0])[1],
        state0[:, None], [pieces], 48)
    if np.max(np.abs(states[:, -1] - state0)) > 1e-8:
        raise BranchTrackingFailure("branch state did not close up")
    off = np.cumsum(K + 1) - (K + 1)

    def quadratures(rows, s0, h):
        r = rows[:, None, None]
        s = s0[:, :, None] + _GL_NODES * h[:, :, None]
        t, dt = _pieces_at(contour, r, s)
        x, vals = _log_args(exps, model.qn, t)
        k = off[r] + np.minimum((s * K[r]).astype(int), K[r])
        delta = _log(vals / anchors[:, k])
        if np.max(np.abs(delta.imag)) >= math.pi / 2:
            raise BranchTrackingFailure("quadrature node too far from anchor")
        st = states[:, k] + delta
        omega = (np.exp(model.hbar * np.sum(st[1:], axis=0)
                        - model.cvals[0] * st[0]) * dt / t).ravel()
        phi = (x / (1.0 + x)).reshape(len(exps), -1)
        f = np.array([omega if ins is None else omega * ins(phi)
                      for ins in insertions])
        quads = (f.reshape(len(insertions), -1, 3, 16) @ _GL_WEIGHTS) * h
        return quads[:, :, 0].T, (quads[:, :, 1] + quads[:, :, 2]).T

    return sum(split.sum(axis=0) for _, _, split in bisect(
        quadratures, np.arange(pieces), tol, QUAD_DEPTH, PANELS,
        QuadratureFailure))
