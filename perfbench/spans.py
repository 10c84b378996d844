"""Span tracer that wraps the library's public bindings from outside.

Each boundary is a (module, attribute) pair replaced by a timing wrapper for
the duration of a ``with Tracer(...)`` block and restored afterwards.  A
binding is wrapped where it is looked up: ``rydswap.tables`` imported
``run_gate`` by name, so wrapping ``rydswap.gates.run_gate`` alone would miss
every call made by ``reproduce_tables``.

Spans nest through an explicit stack, so a layer's self time is its span
time minus the time covered by its child spans.  Nothing inside ``src/`` is
modified; a binding that a later version of the library no longer has is
skipped and listed in ``missing``.
"""

from __future__ import annotations

import importlib
import math
import time
import types
from collections import Counter, defaultdict

# (module, attribute path, layer).  The first group is the evaluation
# boundary: one span there is one gate evaluation or single-state
# propagation, which is what the end-to-end latency metrics time.
EVAL_BOUNDARIES = (
    ("rydswap.tables", "run_gate", "gates.run_gate"),
    ("rydswap.noise", "run_gate", "gates.run_gate"),
    ("rydswap.gates", "run_gate", "gates.run_gate"),
    ("rydswap.analytic", "propagate", "dynamics.propagate"),
)

LAYER_BOUNDARIES = (
    ("rydswap.tables", "reproduce_tables", "tables"),
    ("rydswap.tables", "make_protocol", "gates.make_protocol"),
    ("rydswap.gates", "make_protocol", "gates.make_protocol"),
    ("rydswap.gates", "propagate_matrix", "dynamics.propagate"),
    ("rydswap.gates", "calibrate_duration", "calibration"),
    ("rydswap.analytic", "calibrate_swap_time", "calibration"),
    ("rydswap.analytic", "swap_time_estimate", "calibration"),
    ("rydswap.noise", "monte_carlo_fidelity", "noise.mc"),
    ("rydswap.noise", "sample_realization", "noise.sample"),
    ("rydswap.model", "HamiltonianEvaluator.__call__", "model.h_eval"),
    ("rydswap.dynamics", "_with_global_time_noise", "model.h_noisy"),
    ("rydswap.dynamics", "expm", "dynamics.exp"),
    ("rydswap.dynamics", "np.linalg.eigh", "dynamics.exp"),
)

# Counted but not timed: a span per envelope value would cost more than the
# call it measures.
COUNT_BOUNDARIES = (("rydswap.model", "envelope_value", "model.envelope"),)

EVAL_KEYS = frozenset(f"{module}:{path}" for module, path, _ in EVAL_BOUNDARIES)


def _resolve(module: str, path: str):
    """(owner object, final attribute name, current value) or None."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


class Tracer:
    """Install span wrappers on enter, restore the originals on exit.

    full=False wraps only the evaluation boundary (the untraced run's latency
    probe, one clock pair per evaluation); full=True wraps every layer.
    after_eval, if given, is called after each evaluation, outside its span.
    """

    def __init__(self, full: bool, after_eval=None):
        self.boundaries = EVAL_BOUNDARIES + (LAYER_BOUNDARIES + COUNT_BOUNDARIES if full else ())
        self.total = defaultdict(float)  # layer -> span time, s
        self.self_time = defaultdict(float)  # layer -> span time minus child spans, s
        self.calls = Counter()  # layer -> calls
        self.binding_calls = Counter()  # "module:attr" -> calls
        self.evals: list[tuple[float, object]] = []  # (seconds, result) per evaluation
        self.eval_layers: list[str] = []  # "gates.run_gate" or "dynamics.propagate", per evaluation
        self.eval_ends: list[float] = []  # perf_counter() at the end of each evaluation
        self.calibration_evals = 0
        self.exp_max_dim = 0
        self.exp_flops = 0  # sum over exponentiated matrices of d**3
        self.exp_matrices = 0
        self.missing: list[str] = []
        self._after_eval = after_eval
        self._stack: list[list] = []  # [layer, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, key: str, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        is_eval = key in EVAL_KEYS

        def wrapper(*args, **kwargs):
            if layer == "dynamics.exp":
                self._count_matrices(args[0] if args else kwargs.get("A", kwargs.get("a")))
            if is_eval and any(f[0] == "calibration" for f in stack):
                self.calibration_evals += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.total[layer] += dt
                self.self_time[layer] += dt - frame[1]
                self.calls[layer] += 1
                self.binding_calls[key] += 1
                if stack:
                    stack[-1][1] += dt
            if is_eval:
                self.evals.append((dt, result))
                self.eval_layers.append(layer)
                self.eval_ends.append(t0 + dt)
                if self._after_eval is not None:
                    self._after_eval()
            return result

        return wrapper

    def _counter(self, key: str, layer: str, fn):
        calls = self.calls
        binding_calls = self.binding_calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            binding_calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_matrices(self, a) -> None:
        shape = getattr(a, "shape", ())
        if len(shape) < 2:
            return
        d = int(shape[-1])
        n = math.prod(int(s) for s in shape[:-2])
        self.exp_matrices += n
        self.exp_flops += n * d**3
        self.exp_max_dim = max(self.exp_max_dim, d)

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        counted = {(m, p) for m, p, _ in COUNT_BOUNDARIES}
        for module, path, layer in self.boundaries:
            key = f"{module}:{path}"
            if path.startswith("np."):
                self._wrap_numpy(module, path, key, layer)
                continue
            found = _resolve(module, path)
            if found is None:
                self.missing.append(key)
                continue
            owner, attr, fn = found
            make = self._counter if (module, path) in counted else self._span
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, make(key, layer, fn))
        return self

    def _wrap_numpy(self, module: str, path: str, key: str, layer: str) -> None:
        """Give one module a private numpy whose linalg function is wrapped.

        Patching numpy.linalg itself would also count calls made by numpy,
        scipy and other rydswap modules.
        """
        mod = importlib.import_module(module)
        real_np = getattr(mod, "np", None)
        fname = path.split(".")[-1]
        fn = getattr(getattr(real_np, "linalg", None), fname, None)
        if fn is None:
            self.missing.append(key)
            return
        linalg = types.ModuleType(real_np.linalg.__name__)
        linalg.__dict__.update(real_np.linalg.__dict__)
        setattr(linalg, fname, self._span(key, layer, fn))
        proxy = types.ModuleType(real_np.__name__)
        proxy.__dict__.update(real_np.__dict__)
        proxy.linalg = linalg
        self._restore.append((mod, "np", real_np))
        mod.np = proxy

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
