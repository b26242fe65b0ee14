"""Span tracing from outside the library.

The tracer replaces public functions of ``ncspaces`` (and
``numpy.linalg.eigvalsh``) by wrappers that record one span per call: name,
label, start, end, parent span and the benchmark item that caused it.  A
function is wrapped under every module attribute that refers to it, so calls
through ``from .linalg import spectral_norm`` are seen as well.  Spans stay in
memory while the item list runs; ``self_times`` and ``dump`` run afterwards.

Spans are only recorded while ``active`` is set, which the runner does around
the timed part of each item; oracle code that happens to call the library is
therefore never attributed to a layer.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

# below this matrix size linalg.spectral_norm takes a full SVD, above it power
# iteration; the split is part of the layer contract the metrics describe
SPECTRAL_NORM_CUTOFF = 512


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    item: Optional[int]
    name: str
    label: str
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.item: Optional[int] = None
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> List[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, label=None, count=None) -> Callable:
        """Wrapper recording a span; ``label(args, kwargs, result)`` names a
        sub-bucket and ``count(tracer, args, kwargs, result)`` adds counters."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a library worker thread: its spans belong to the main-thread
                # span that started the pool
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            tag = label(args, kwargs, result) if label else ""
            self.spans.append(Span(sid, parent, self.item, name, tag, t0, t1))
            if count:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owners, attr: str, name: str, label=None, count=None):
        """Wrap ``attr`` of ``owners[0]`` and rebind every module attribute in
        ``owners`` and in the loaded ``ncspaces`` modules that refers to it."""
        original = getattr(owners[0], attr)
        wrapped = self.wrap(original, name, label, count)
        targets = list(owners)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ncspaces" and mod not in targets:
                targets.append(mod)
        for owner in targets:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per ``name`` and per ``name.label``: span duration minus
        the part of it that child spans cover (children of library worker
        threads may overlap, so their union is subtracted)."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s.sid, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            own = (s.end - s.start) - covered
            out[s.name] += own
            if s.label:
                out[f"{s.name}.{s.label}"] += own
        return out

    def call_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
            if s.label:
                out[f"{s.name}.{s.label}"] += 1
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "item": s.item,
                            "name": s.name,
                            "label": s.label,
                            "start_s": s.start - t0,
                            "end_s": s.end - t0,
                        }
                    )
                    + "\n"
                )


# -- what the benchmark wraps ---------------------------------------------------


def _q_label(args, kwargs, result):
    return "q_small" if args[1] < 16 else "q_large"


def _m_label(args, kwargs, result):
    return f"M{args[0].points}"


def _norm_label(args, kwargs, result):
    return "svd" if max(np.shape(args[0])) < SPECTRAL_NORM_CUTOFF else "power"


def _dim_label(args, kwargs, result):
    return "lt512" if result.dim_hilbert < 512 else "ge512"


def _cli_label(args, kwargs, result):
    return args[0][0]


def _count_poly_mul(tracer, args, kwargs, result):
    a, b = args[0], args[1]
    tracer.counts["twisted_algebra.poly_mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)
    if result.exact:
        tracer.counts["phases.zeta_terms"] += sum(len(c.terms) for c in result.coeffs.values())
        tracer.counts["phases.coefficients"] += len(result.coeffs)
        # every exact coefficient carries the phase order Q of theta
        for c in result.coeffs.values():
            tracer.maxima["phases.phase_order.max"] = max(
                tracer.maxima["phases.phase_order.max"], c.order
            )
            break


def _count_eigvalsh(tracer, args, kwargs, result):
    tracer.counts["spectra.eigvalsh.matrices"] += int(np.prod(np.shape(args[0])[:-2]))


def _count_convolve(tracer, args, kwargs, result):
    f = args[0]
    tracer.counts["moyal.twisted_convolve.ops_computed"] += f.points ** (2 * f.dim)


def _count_write_gridfn(tracer, args, kwargs, result):
    tracer.counts["gridfn.write_gridfn.bytes"] += os.path.getsize(args[1])


def _count_cli(tracer, args, kwargs, result):
    argv = list(args[0])
    out = argv[argv.index("--out") + 1]
    tracer.counts[f"cli.{argv[0]}.out_bytes"] += os.path.getsize(out)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points every per-layer metric is read from."""
    import numpy.linalg

    import ncspaces.cli as cli
    import ncspaces.finite_reps as fr
    import ncspaces.gridfn as gridfn
    import ncspaces.linalg as linalg
    import ncspaces.moyal as moyal
    import ncspaces.spectra as spectra
    import ncspaces.symplectic as symplectic
    import ncspaces.twisted_algebra as ta
    import ncspaces.weyl_dynamics as wd

    tracer.patch([ta], "poly_mul", "twisted_algebra.poly_mul", count=_count_poly_mul)
    tracer.patch([ta], "poly_adjoint", "twisted_algebra.poly_adjoint")
    tracer.patch([ta], "gns_matrix", "twisted_algebra.gns_matrix")
    tracer.patch([ta], "cocycle_validate", "twisted_algebra.cocycle_validate")
    tracer.patch([ta.NCPolynomial], "__eq__", "twisted_algebra.equality")

    tracer.patch([spectra], "amo_spectrum", "spectra.amo_spectrum", label=_q_label)
    tracer.patch([spectra], "holder_scan", "spectra.holder_scan")
    tracer.patch([spectra], "hausdorff_distance", "spectra.hausdorff_distance")
    tracer.patch([numpy.linalg], "eigvalsh", "spectra.eigvalsh", count=_count_eigvalsh)

    tracer.patch([moyal], "twisted_convolve", "moyal.twisted_convolve", label=_m_label,
                 count=_count_convolve)
    tracer.patch([moyal], "moyal_direct", "moyal.moyal_direct", label=_m_label)
    tracer.patch([moyal], "star_product_fourier", "moyal.star_product_fourier")
    tracer.patch([moyal], "regular_rep_matrix", "moyal.regular_rep_matrix")
    tracer.patch([gridfn], "to_frequency", "gridfn.to_frequency")
    tracer.patch([gridfn], "to_position", "gridfn.to_position")
    tracer.patch([gridfn], "write_gridfn", "gridfn.write_gridfn", count=_count_write_gridfn)

    tracer.patch([linalg], "spectral_norm", "linalg.spectral_norm", label=_norm_label)
    tracer.patch([fr], "tensor_construct", "finite_reps.tensor_construct", label=_dim_label)
    tracer.patch([fr], "distance_lower_bound_check", "finite_reps.distance_lower_bound_check")
    tracer.patch([wd], "weyl_residual", "weyl_dynamics.weyl_residual")
    tracer.patch([wd], "generator_bound_check", "weyl_dynamics.generator_bound_check")
    tracer.patch([symplectic], "symplectic_normalize", "symplectic.symplectic_normalize")
    tracer.patch([cli], "main", "cli", label=_cli_label, count=_count_cli)
