"""Per-layer tracing of spinorlab from outside the package.

A :class:`Tracer` wraps the functions of each layer (a layer is a module of
``spinorlab``) and replaces every reference to them that a caller looks up at
run time: module attributes, names bound by ``from x import y``, and
functions stored in module-level dicts such as ``sampling.FAMILY_DRAWS``.
Per-spinor calls are aggregated into counters (calls, inclusive time, self
time) rather than recorded one span per call.  A name a commit lacks is
reported as absent and its metrics read 0.

Self time is a call's duration minus the time its traced callees took, so a
layer's ``self_s`` is the time spent in that module's own code, including
the numpy work it does and the private helpers it calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PUBLIC = object()  # selector: every public function defined in the module

KERNEL_NAMES = ("bilinears", "helicity_residuals", "dirac_apply_shift")
VERIFICATION_CHECKS = (
    "clifford_algebra", "boost_inverse", "fpk_identities",
    "constructor_class_table", "helicity_dichotomy", "parity_dirac_link",
    "dual_helicity_dirac", "charge_conjugation", "theta_link", "klein_gordon",
    "backend_agreement",
)

# (layer, candidate modules in lookup order, functions to wrap).  The kernel
# layer is found where callers dispatch through it: ``backend`` today,
# ``kernels`` or ``_pure`` once the dispatch module is gone.
LAYERS = (
    ("cli", ("spinorlab.cli",), ("parse_job", "run_job", "_run_sample")),
    ("report", ("spinorlab.report",), PUBLIC),
    ("verification", ("spinorlab.verification",), PUBLIC),
    ("sampling", ("spinorlab.sampling",), PUBLIC),
    ("sampling", ("spinorlab.sampling",), ("_rejection_fill",)),
    ("factory", ("spinorlab.factory",), PUBLIC),
    ("symmetries", ("spinorlab.symmetries",), PUBLIC),
    ("classify", ("spinorlab.classify",), PUBLIC),
    ("bilinears", ("spinorlab.bilinears",), PUBLIC),
    ("algebra", ("spinorlab.algebra",), PUBLIC),
    ("kernels", ("spinorlab.backend", "spinorlab.kernels", "spinorlab._pure"),
     KERNEL_NAMES),
)

# Names whose absence is worth reporting: the metrics below are built on them.
REQUIRED = (
    ("cli", "parse_job"), ("cli", "run_job"), ("cli", "_run_sample"),
    ("report", "emit_structured"), ("sampling", "_rejection_fill"),
    ("algebra", "boost_block"),
) + tuple(("kernels", n) for n in KERNEL_NAMES) + tuple(
    ("verification", "check_" + c) for c in VERIFICATION_CHECKS)

PER_LAYER_METRICS = (
    ("factory.calls", "count"),
    ("factory.self_s", "s"),
    ("sampling.self_s", "s"),
    ("sampling.rows", "count"),
    ("sampling.accept_ratio", "ratio"),
    ("kernels.bilinears_s", "s"),
    ("kernels.helicity_residuals_s", "s"),
    ("kernels.dirac_apply_shift_s", "s"),
    ("kernels.rows", "count"),
    ("bilinears.self_s", "s"),
    ("classify.self_s", "s"),
    ("symmetries.self_s", "s"),
    ("symmetries.calls", "count"),
    ("algebra.boost_block_calls", "count"),
    ("algebra.self_s", "s"),
) + tuple((f"verification.{c}_s", "s") for c in VERIFICATION_CHECKS) + (
    ("cli.parse_s", "s"),
    ("cli.self_s", "s"),
    ("report.emit_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.absent_names", "count"),
)


class Tracer:
    """Wraps spinorlab's layers while installed; collects aggregate counters."""

    def __init__(self):
        # "layer.function" -> [calls, inclusive seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.entries = defaultdict(int)  # calls into a layer from outside it
        self.counters = defaultdict(int)
        self.absent: list[str] = []
        self._frames = [["", 0.0]]  # [layer, child seconds] per active call
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        seen = set()
        for layer, candidates, selector in LAYERS:
            for name, fn in self._targets(layer, candidates, selector):
                if id(fn) in wrappers or (layer, name) in seen:
                    continue
                seen.add((layer, name))
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for (layer, name) in REQUIRED:
            if (layer, name) not in seen:
                self.absent.append(f"{layer}.{name}")
        for module in [m for k, m in sys.modules.items()
                       if k == "spinorlab" or k.startswith("spinorlab.")]:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._swap(vars(module), key, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        if id(v2) in wrappers and wrappers[id(v2)][0] is v2:
                            self._swap(value, k2, wrappers[id(v2)][1])

    def uninstall(self):
        while self._undo:
            container, key, original = self._undo.pop()
            container[key] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _swap(self, container, key, wrapper):
        self._undo.append((container, key, container[key]))
        container[key] = wrapper

    @staticmethod
    def _targets(layer, candidates, selector):
        modules = []
        for modname in candidates:
            try:
                modules.append(importlib.import_module(modname))
            except ImportError:
                continue
        if not modules:
            return []
        if selector is PUBLIC:
            mod = modules[0]
            return [(name, obj) for name, obj in vars(mod).items()
                    if not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__]
        found = []
        for name in selector:
            for mod in modules:
                obj = getattr(mod, name, None)
                if callable(obj):
                    found.append((name, obj))
                    break
        return found

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        stat = self.stats[f"{layer}.{name}"]
        frames = self._frames
        entries = self.entries
        counters = self.counters
        clock = time.perf_counter
        counts_rows = layer == "kernels"
        rejection = name == "_rejection_fill" and _has_params(fn, "keep")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if frames[-1][0] != layer:
                entries[layer] += 1
            if counts_rows and args:
                counters["kernels.rows"] += len(args[0])
            if rejection:
                args, kwargs = _count_acceptance(fn, counters, args, kwargs)
            frame = [layer, 0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]

        return wrapper

    # -- results -------------------------------------------------------------

    def _self(self, layer):
        prefix = layer + "."
        return sum(s[2] for k, s in self.stats.items() if k.startswith(prefix))

    def _get(self, key, index):
        return self.stats[key][index] if key in self.stats else 0

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s."""
        drawn = self.counters["sampling.drawn"]
        out = {
            "factory.calls": self.entries["factory"],
            "factory.self_s": self._self("factory"),
            "sampling.self_s": self._self("sampling"),
            "sampling.rows": self.counters["sampling.kept"],
            "sampling.accept_ratio":
                self.counters["sampling.kept"] / drawn if drawn else 0.0,
            "kernels.rows": self.counters["kernels.rows"],
            "bilinears.self_s": self._self("bilinears"),
            "classify.self_s": self._self("classify"),
            "symmetries.self_s": self._self("symmetries"),
            "symmetries.calls": self.entries["symmetries"],
            "algebra.boost_block_calls": self._get("algebra.boost_block", 0),
            "algebra.self_s": self._self("algebra"),
            "cli.parse_s": self._get("cli.parse_job", 1),
            "cli.self_s": self._get("cli.run_job", 2) + self._get("cli._run_sample", 2),
            "report.emit_s": self._get("report.emit_structured", 1)
                             + self._get("report.emit_human", 1),
            "trace.absent_names": len(self.absent),
        }
        for name in KERNEL_NAMES:
            out[f"kernels.{name}_s"] = self._get(f"kernels.{name}", 1)
        for check in VERIFICATION_CHECKS:
            out[f"verification.{check}_s"] = self._get(f"verification.check_{check}", 1)
        return out


def _has_params(fn, name) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return name in params


def _count_acceptance(fn, counters, args, kwargs):
    """Rebind ``keep`` so that drawn and kept rows are counted."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    keep = bound.arguments["keep"]

    def counting_keep(cand):
        mask = keep(cand)
        counters["sampling.drawn"] += len(cand)
        counters["sampling.kept"] += int(mask.sum())
        return mask

    bound.arguments["keep"] = counting_keep
    return bound.args, bound.kwargs
