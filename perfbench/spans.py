"""Spans around the calls into each layer of `hypertoric`, recorded from
outside the package.

`Tracer.install()` replaces each layer's public functions and methods with
wrappers that time nested spans and count calls; a layer's self time is the
duration of its spans minus the part covered by their child spans.  It is
only ever installed in a forked operation process, so the parent and the
untraced runs keep the original functions.
"""

import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, layer).  A layer of None only counts.
SPANS = [
    ("hypertoric.cli", "main", "cli.self"),
    ("hypertoric.arrangement", "build_torus_data", "arrangement"),
    ("hypertoric.arrangement", "enumerate_circuits", "arrangement"),
    ("hypertoric.arrangement", "classify", "arrangement"),
    ("hypertoric.arrangement", "vertices", "arrangement"),
    ("hypertoric.arrangement", "root_hyperplanes", "arrangement"),
    ("hypertoric.quantum_ring", "presentation", "quantum_ring.presentation"),
    ("hypertoric.upoly", "buchberger", "upoly.buchberger"),
    ("hypertoric.upoly", "staircase", None),
    ("hypertoric.quantum_ring", "RingPresentation.multiplication_matrix",
     "quantum_ring.multiplication"),
    ("hypertoric.quantum_ring", "RingPresentation.multiplication_matrix_poly",
     "quantum_ring.multiplication"),
    ("hypertoric.quantum_ring", "extract_steinberg", "quantum_ring.steinberg"),
    ("hypertoric.quantum_ring", "verify_divisor_formula",
     "quantum_ring.divisor_formula"),
    ("hypertoric.connection", "ConnectionFamily.__init__", "connection.symbols"),
    ("hypertoric.connection", "ConnectionFamily.nabla", "connection.symbols"),
    ("hypertoric.connection", "ConnectionFamily.flatness_exact",
     "connection.symbols"),
    ("hypertoric.connection", "gkz_system", "connection.symbols"),
    ("hypertoric.connection", "symbol_check", "connection.symbols"),
    ("hypertoric.connection", "gkz_annihilates_unit", "connection.symbols"),
    ("hypertoric.connection", "NumericConnection.__init__", "connection.compile"),
    ("hypertoric.connection", "NumericConnection.matrices_at",
     "connection.matrices_at"),
    ("hypertoric.connection", "transport", "connection.transport"),
    ("hypertoric.connection", "transport_matrix", "connection.transport"),
    ("hypertoric.mirror", "period", "mirror.period"),
    ("hypertoric.mirror", "verify_gkz_on_periods", "mirror.gkz_periods"),
    ("hypertoric.mirror", "transport_consistency",
     "mirror.transport_consistency"),
    ("hypertoric.mirror", "period_frame", "mirror.transport_consistency"),
    ("hypertoric.mirror", "gtilde_matrix", "mirror.transport_consistency"),
    ("hypertoric.mirror", "critical_points", "mirror.critical_points"),
    ("hypertoric.mirror", "joint_eigenvalues", "mirror.joint_eigenvalues"),
    ("hypertoric.mirror", "compare_spectra", "mirror.compare_spectra"),
    ("hypertoric.resonance", "is_non_resonant", "resonance"),
    ("hypertoric.resonance", "genericity_check", "resonance"),
    ("hypertoric.resonance", "minimal_saturated", "resonance"),
]

# Counts taken from a call's result, keyed by the wrapped attribute.
RESULT_COUNTS = {
    "buchberger": "quantum_ring.gb_size",    # Groebner basis elements
    "staircase": "quantum_ring.rank",        # standard monomials
    "critical_points": "mirror.critical_points.found",
}

# Metrics the traced run reports: self times, then counts.
TIMES = ["arrangement", "quantum_ring.presentation", "upoly.buchberger",
         "quantum_ring.multiplication", "quantum_ring.steinberg",
         "quantum_ring.divisor_formula", "connection.symbols",
         "connection.compile", "connection.matrices_at",
         "connection.transport", "mirror.period", "mirror.gkz_periods",
         "mirror.transport_consistency", "mirror.critical_points",
         "mirror.joint_eigenvalues", "mirror.compare_spectra", "resonance",
         "cli.self"]
COUNTS = ["quantum_ring.presentation.calls", "upoly.buchberger.calls",
          "quantum_ring.gb_size", "quantum_ring.rank",
          "quantum_ring.steinberg.calls", "connection.compile.calls",
          "connection.matrices_at.calls", "mirror.period.calls",
          "mirror.critical_points.found"]


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    return ([(f"{t}.s", "s") for t in TIMES] +
            [(c, "count") for c in COUNTS])


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []                      # [layer, start, child time]

    def wrap(self, layer, fn, count_key):
        def traced(*args, **kwargs):
            if layer is None:
                out = fn(*args, **kwargs)
            else:
                self.counts[f"{layer}.calls"] += 1
                frame = [layer, time.perf_counter(), 0.0]
                self._stack.append(frame)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    dur = time.perf_counter() - frame[1]
                    self.self_s[layer] += dur - frame[2]
                    if self._stack:
                        self._stack[-1][2] += dur
            if count_key:
                self.counts[count_key] += len(out)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry of SPANS, in its defining module or class and
        under every name a `hypertoric` module imported it by."""
        for modname, attr, layer in SPANS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth), None))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(layer, orig, RESULT_COUNTS.get(attr))
            for name, m in list(sys.modules.items()):
                if name == "hypertoric" or name.startswith("hypertoric."):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    def snapshot(self):
        out = {f"{t}.s": self.self_s.get(t, 0.0) for t in TIMES}
        out.update({c: self.counts.get(c, 0) for c in COUNTS})
        return out
