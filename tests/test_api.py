"""Every public top-level function and class in the package has a caller.

So has every public method and property of a public class.

A public name that only tests reach must earn its place (the paper's
effective model, which the acceptance criteria compare with the simulation)
or go; this module lists the ones kept for that reason.  References the
simulator is checked against live in tests/oracles.py.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rydswap"

# public names kept although no package or benchmark module names them
ORACLES = {
    "effective_params": "adiabatic-elimination constants the simulated exchange is checked against",
    "predict_phases": "closed-form light-shift phases that criterion 5 compares with the simulation",
    "acquired_phase": "per-input phase read from a column of the bare gate, compared with predict_phases by criterion 5",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.:]*")


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded, attributes read and dotted names spelled as strings, outside ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            out.update(re.split(r"[.:]", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


def uncalled_public_names() -> set[str]:
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    bench = set().union(*(_referenced(ast.parse(p.read_text())) for p in (ROOT / "perfbench").glob("*.py")))
    refs = {path: _referenced(tree) for path, tree in modules.items()}
    uncalled = set()
    for path, tree in modules.items():
        others = bench.union(*(r for p, r in refs.items() if p != path))
        public = {n.name: n for n in tree.body
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}
        # methods and properties of public classes, by "Class.name"
        public |= {f"{c.name}.{n.name}": n for c in public.values() if isinstance(c, ast.ClassDef)
                   for n in c.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
        for name, node in public.items():
            if name.split(".")[-1] not in others | _referenced(tree, skip=node):
                uncalled.add(name)
    return uncalled


def test_every_public_name_has_a_caller_or_a_reason():
    uncalled = uncalled_public_names()
    assert uncalled - set(ORACLES) == set()
    # a listed name that gains a caller, or is deleted, leaves the list
    assert set(ORACLES) - uncalled == set()


# A fresh import loads numpy and scipy.linalg only; the optimizer loads on the
# first call that needs it, and the ODE solver is a test reference only.
_COLD_START = """
import sys
import rydswap, rydswap.analytic, rydswap.gates, rydswap.noise, rydswap.tables, rydswap.sweep, rydswap.cli
import scipy.linalg
import rydswap.dynamics
assert "scipy.optimize" not in sys.modules, "scipy.optimize loaded on import"
assert "scipy.integrate" not in sys.modules, "scipy.integrate loaded on import"
assert rydswap.dynamics.expm is scipy.linalg.expm
"""


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_cold_start_imports_only_what_runs():
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_benchmark_setup_runs(workload):
    # the benchmark's set-up builds every protocol it times through the public
    # constructors; a constructor change that breaks it shows here, not after a run
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _required_bindings() -> set[str]:
    """The "module:attr" names in perfbench/run.py's REQUIRED_BINDINGS, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    assigned = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    out, stack = set(), [assigned["REQUIRED_BINDINGS"]]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and node.id in assigned:
            stack.append(assigned[node.id])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and ":" in node.value:
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_benchmark_binding_resolves():
    # the benchmark wraps these by name and fails a workload where one records
    # no calls; a binding the library no longer has shows here, not after a run
    bindings = _required_bindings()
    assert {"rydswap.dynamics:expm", "rydswap.dynamics:np.linalg.eigh",
            "rydswap.model:HamiltonianEvaluator.__call__"} <= bindings
    missing = []
    for binding in sorted(bindings):
        module, attrs = binding.split(":")
        obj = importlib.import_module(module)
        for attr in attrs.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(binding)
    assert missing == []


@pytest.mark.parametrize("lifetime", [400.0, None])
def test_a_gate_run_reaches_every_pinned_kernel_binding(lifetime, monkeypatch):
    # the benchmark fails a workload whose run records no call of a pinned
    # binding; a kernel that stops calling one shows here, not after a run,
    # on the decay budget (paper_small's table gates) and without decay
    # (routing_large), where constant stages take the derivative product
    from dataclasses import replace

    from rydswap.dynamics import StepPolicy
    from rydswap.gates import make_protocol, run_gate, table_params

    calls = {}
    for binding in sorted(b for b in _required_bindings() if b.split(":")[0] in ("rydswap.dynamics", "rydswap.model")):
        module, attrs = binding.split(":")
        *path, name = attrs.split(".")
        owner = importlib.import_module(module)
        for attr in path:
            owner = getattr(owner, attr)
        calls[binding] = 0

        def counted(*args, _binding=binding, _wrapped=getattr(owner, name), **kwargs):
            calls[_binding] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    assert {"rydswap.dynamics:expm", "rydswap.dynamics:np.linalg.eigh",
            "rydswap.model:HamiltonianEvaluator.__call__", "rydswap.model:envelope_value"} <= set(calls)
    proto = make_protocol("C_SWAP_CCSdag", replace(table_params("C_SWAP_CCSdag"), lifetime=lifetime))
    run_gate(replace(proto, plan=replace(proto.plan, policy=StepPolicy(gaussian_resolution=25, square_resolution=20))))
    assert all(calls.values()), calls
