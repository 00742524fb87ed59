"""The argv oracle of the command line: the argparse parser that
hypertoric.cli used before it read argv off its own option table, kept
here as the reference that tests/test_cli.py checks the scan against."""

import argparse

from hypertoric import __version__


def _parser():
    p = argparse.ArgumentParser(
        prog="hypertoric",
        description="Equivariant quantum cohomology of smooth hypertoric "
                    "varieties: rings, connections, GKZ systems, mirror "
                    "verification.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="input JSON file, or - for stdin")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized choices (default 0)")

    def exact_params(sp):
        sp.add_argument("--hbar", default=None,
                        help="exact fraction p/q, overrides params.hbar")
        sp.add_argument("--c", default=None,
                        help="comma-separated exact fractions, overrides "
                             "params.c")

    sp = sub.add_parser("check", help="classification, circuits, vertices, "
                                      "root hyperplanes")
    common(sp)
    sp = sub.add_parser("ring", help="ring presentation, standard basis, "
                                     "multiplication matrices")
    common(sp)
    sp.add_argument("--classical", action="store_true",
                    help="the classical ring instead of the quantum one")
    sp.add_argument("--matrices", action="store_true",
                    help="include multiplication matrices in the report")
    sp = sub.add_parser("gkz", help="GKZ operators and exact symbol check")
    common(sp)
    sp = sub.add_parser("mirror-verify",
                        help="periods, GKZ residuals, spectra, transport")
    common(sp)
    exact_params(sp)
    sp.add_argument("--tol", type=float, default=1e-6,
                    help="numeric tolerance for pass/fail checks, a finite "
                         "positive number")
    sp.add_argument("--points", type=int, default=3,
                    help="number of seeded q points when params.q is absent")
    sp = sub.add_parser("resonance", help="exact non-resonance verdict")
    common(sp)
    exact_params(sp)
    return p


def parse_args(argv):
    """argv as the argparse parser reads it: a Namespace, or SystemExit."""
    return _parser().parse_args(argv)
