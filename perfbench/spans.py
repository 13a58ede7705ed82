"""Spans around varcert's public functions, recorded from outside the program.

Each wrapped call appends one span: function id, parent span, operation id,
start and end.  Spans are kept in flat arrays (28 bytes each) because one
estimated-kappa SIP certificate makes over a million ``expr.evaluate``
calls.  Wrappers replace the function in every varcert module namespace
that bound it, since ``from .solvers import lp_solve`` gives ``certify``,
``sip`` and ``sdp`` their own names for it.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# the layers are varcert's modules; each entry is module -> wrapped functions
LAYERS = {
    "expr": ["evaluate", "grad", "directional", "evaluate_grid"],
    "solvers": ["lp_solve", "eigh"],
    "geometry": ["project", "project_cone", "tangent_cone", "SampledSetOracle.project"],
    "calculus": ["msqc_estimate", "abadie_check", "robinson_check"],
    "certify": ["dual_certificate", "primal_check"],
    "sip": ["sip_kappa_estimate", "sup_violation", "active_indexes", "caratheodory_reduce"],
    "sdp": ["certify", "grad_quadform", "feasibility"],
    "cli": ["recheck", "canonical_json", "load_problem"],
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
ROOT = "cli.run"  # the benchmark's own span around each operation

# metrics read from return values, as (metric, numerator, denominator) counters
RATIOS = [
    ("solvers.lp_solve.optimal_frac", "lp_optimal", "solvers.lp_solve"),
    ("geometry.project.zero_frac", "project_zero", "geometry.project"),
    ("calculus.msqc_estimate.samples_used_frac", "msqc_used", "msqc_drawn"),
    ("sip.sip_kappa_estimate.samples_used_frac", "sip_used", "sip_drawn"),
]
SUMS = [("solvers.lp_solve.pivots", "lp_pivots"), ("solvers.lp_solve.cells", "lp_cells")]


def _samples_drawn(fn, args, kwargs):
    """The ratio estimators draw ``samples`` points at each of three radii."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return 3 * bound.arguments["samples"]


class Tracer:
    """Owns the span arrays and the installed wrappers."""

    def __init__(self):
        self.names = [ROOT] + FUNCTIONS
        self.fn = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(
            ["lp_pivots", "lp_cells", "lp_optimal", "project_zero",
             "msqc_used", "msqc_drawn", "sip_used", "sip_drawn"], 0)
        self.stack = [-1]
        self.current_op = -1
        self._patches = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fid, fn, observe):
        fids, parents, ops, starts, ends = self.fn, self.parent, self.op, self.start, self.end
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def operation(self, op_id, run):
        """Run one benchmark operation ``run()`` under a root span."""
        self.current_op = op_id
        return self._wrap(0, run, None)()

    def _observers(self, fn_of):
        c = self.counters

        def lp(args, kwargs, sol):
            c["lp_pivots"] += sol.iterations
            c["lp_cells"] += args[0].A.size
            c["lp_optimal"] += sol.status == "optimal"

        def project(args, kwargs, result):
            c["project_zero"] += result[1] == 0.0

        def ratio(prefix, fn):
            def observe(args, kwargs, rep):
                c[prefix + "_used"] += rep.samples
                c[prefix + "_drawn"] += _samples_drawn(fn, args, kwargs)
            return observe

        return {"solvers.lp_solve": lp, "geometry.project": project,
                "calculus.msqc_estimate": ratio("msqc", fn_of["calculus.msqc_estimate"]),
                "sip.sip_kappa_estimate": ratio("sip", fn_of["sip.sip_kappa_estimate"])}

    # -- installing -------------------------------------------------------

    def install(self):
        """Replace every binding of every traced function in varcert's modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "varcert" or name.startswith("varcert.")}
        fn_of = {}
        for name in FUNCTIONS:
            mod, _, attr = name.partition(".")
            owner = modules[f"varcert.{mod}"]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn_of[name] = owner.__dict__[attr]
        observers = self._observers(fn_of)
        targets = list(modules.values()) + list({
            id(v): v for m in modules.values() for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("varcert")}.values())
        for fid, name in enumerate(FUNCTIONS, start=1):
            original = fn_of[name]
            wrapper = self._wrap(fid, original, observers.get(name))
            for owner in targets:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patches.append((owner, attr, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- reporting --------------------------------------------------------

    def arrays(self):
        return {key: np.array(getattr(self, key), dtype=dtype) for key, dtype in
                [("fn", np.int16), ("parent", np.int32), ("op", np.int32),
                 ("start", np.float64), ("end", np.float64)]}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self):
        """calls, inclusive s and self_s per function, plus the counters.

        Inclusive time counts only the outermost span of a function on each
        stack, so recursion is not counted twice.  Self time is a span's
        duration minus that of its direct children.
        """
        a = self.arrays()
        fid, parent = a["fn"].astype(np.int64), a["parent"].astype(np.int64)
        dur = a["end"] - a["start"]
        nspans, nfn = len(dur), len(self.names)
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=nspans)
        # OR of the function bits over each span and its ancestors, by pointer
        # jumping: after j rounds each span has folded in 2^j generations
        bit = np.left_shift(np.int64(1), fid)
        mask, up = bit.copy(), parent.copy()
        live = np.flatnonzero(up >= 0)
        while live.size:
            mask[live] |= mask[up[live]]
            up[live] = up[up[live]]
            live = live[up[live] >= 0]
        outer = ~child | ((mask[np.where(child, parent, 0)] & bit) == 0)
        calls = np.bincount(fid, minlength=nfn)
        incl = np.bincount(fid[outer], weights=dur[outer], minlength=nfn)
        selft = np.bincount(fid, weights=self_t, minlength=nfn)
        out = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.s"] = (float(incl[i]), "s")
            out[f"{name}.self_s"] = (float(selft[i]), "s")
        c = self.counters
        for name, key in SUMS:
            out[name] = (int(c[key]), "count")
        for name, num, den in RATIOS:
            d = calls[self.names.index(den)] if den in self.names else c[den]
            out[name] = (float(c[num] / d) if d else 0.0, "frac")
        for mod in LAYERS:
            out[f"{mod}.layer_self_s"] = (float(sum(
                selft[self.names.index(n)] for n in FUNCTIONS if n.startswith(mod + "."))), "s")
        out["bench.unwrapped_self_s"] = (float(selft[0]), "s")
        out["bench.spans"] = (nspans, "count")
        return out
