"""Spans and counts around the calls between corrdet's modules.

The tracer replaces module-level names in the corrdet package with
timing wrappers.  A function imported with ``from ... import`` is
replaced in every corrdet module that holds it, so a call reaches the
wrapper whichever module it is made from.  Nothing in corrdet itself is
edited; ``uninstall`` puts the original objects back.

Every wrapped call keeps its caller's child time, so each name gets an
exclusive (self) time.  Most names also get one span record each:
(id, name, start, end, parent id).  The hot leaves -- the CGF
evaluations and the MD objective -- are counted and timed but get no
span record of their own, since the quantizer alone makes a few hundred
thousand of them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "corrdet"

# (module, name) pairs to wrap, by the module that defines them
WRAPPED = {
    "cgf": ["cgf_eval", "cgf_deriv", "mgf_complex"],
    "_optim": ["golden_max", "golden_max_vec", "expand_bracket_max"],
    "exponents": ["md_exponent", "md_objective", "fa_exponent"],
    "design": [
        "design_optimal", "design_classical", "design_quantized", "design_4ask",
        "tune_rho", "_g_inverse_arr", "_tune_rho_arr",
        "_objective_for_lams", "_lloyd_sweeps",
    ],
    "joint": [
        "joint_md_exponent", "c_tilde", "stationary_levels", "classify_curvature",
        "_envelope_grid", "_envelope_values", "_joint_objective_grid",
    ],
    "extended": [
        "c_alpha_energy", "c_alpha_abs", "md_exponent_energy", "md_exponent_abs",
        "fa_exponent_energy", "fa_exponent_abs", "_sup_concave",
        "quad",
    ],
    "_kernels": ["md_weights", "lower_hull"],
    "montecarlo": ["md_probability", "estimate_slope"],
    "cli": ["main"],
}

# counted and timed, but no span record per call
LEAVES = {"cgf_eval", "cgf_deriv", "mgf_complex", "md_objective"}

# scipy's quad is wrapped where extended imported it, and timed as extended's work
LAYER_OF = {"quad": "extended"}


class NameStats:
    __slots__ = ("layer", "calls", "total_s", "self_s", "points", "extra")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.points = 0
        self.extra = 0


class Tracer:
    """Wraps corrdet's module-level names and records spans and counts."""

    def __init__(self):
        self._saved = []  # (module, attribute, original)
        self.reset()

    def reset(self):
        self.stats = {}  # name -> NameStats
        self.spans = []  # (id, name, start, end, parent)
        self.kernel_calls = []  # (op, seconds, trials * n) per md_weights call
        self.derivs_by_layer = defaultdict(int)  # cgf_deriv calls by caller's layer
        self._stack = []  # open frames: [stats, child seconds, span id or None]
        self._span = None  # innermost open span id
        self._op = None

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for short, names in WRAPPED.items():
            home = importlib.import_module(f"{PACKAGE}.{short}")
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(LAYER_OF.get(name, short), name, orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- recording ----------------------------------------------------------

    def op_span(self, op_name):
        """Context manager: the root span of one benchmark operation."""
        return _OpSpan(self, op_name)

    def _wrap(self, layer, name, fn):
        leaf = name in LEAVES
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = tracer.stats.get(name)
            if st is None:
                st = tracer.stats[name] = NameStats(layer)
            stack = tracer._stack
            parent_span = tracer._span
            span_id = None
            if not leaf:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id in call order
                tracer._span = span_id
            frame = [st, 0.0, span_id]
            if name == "cgf_deriv" and stack:
                tracer.derivs_by_layer[stack[-1][0].layer] += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer._span = parent_span
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                if span_id is not None:
                    tracer.spans[span_id] = (span_id, name, t0, t1, parent_span)
            tracer._count(name, st, args, out, dt)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, st, args, out, dt):
        if name in ("cgf_eval", "cgf_deriv", "mgf_complex"):
            st.points += int(np.size(args[1]))
        elif name == "golden_max":
            st.extra += int(out[2])  # iterations, from the helper's return value
        elif name == "expand_bracket_max":
            st.extra += int(out[1])  # objective evaluations, likewise
        elif name == "lower_hull":
            st.points += int(np.size(args[0]))
        elif name == "md_weights":
            samples = int(args[11]) * int(np.size(args[4]))
            st.points += samples
            self.kernel_calls.append((self._op, dt, samples))

    # -- summary ------------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(st.self_s for st in self.stats.values() if st.layer == layer)

    def get(self, name, field):
        st = self.stats.get(name)
        return 0 if st is None else getattr(st, field)

    def span_records(self):
        return [s for s in self.spans if s is not None]


class _OpSpan:
    def __init__(self, tracer, op_name):
        self.tracer = tracer
        self.name = f"op:{op_name}"

    def __enter__(self):
        tr = self.tracer
        tr._op = self.name[3:]
        self.id = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr._span
        tr._span = self.id
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.id] = (self.id, self.name, self.t0, time.perf_counter(), self.parent)
        tr._span = self.parent
        tr._op = None
        return False
