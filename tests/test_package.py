import importlib
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import fracbspde
import fracbspde.errors
import fracbspde.grid
import fracbspde.kernel
import fracbspde.levy

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracbspde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    """A star import fails on an __all__ entry that the module does not define."""
    namespace: dict = {}
    exec(f"from fracbspde.{name} import *", namespace)
    exported = getattr(importlib.import_module(f"fracbspde.{name}"), "__all__", ())
    assert len(set(exported)) == len(exported)
    assert set(exported) <= namespace.keys()


SRC = os.path.dirname(os.path.dirname(fracbspde.__file__))
BENCH = os.path.join(os.path.dirname(SRC), "bench")


def _fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter on this source, writing no bytecode."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True).stdout


def test_cli_import_leaves_the_optional_scipy_modules_unloaded():
    # scipy serves three scalar constants, one fraclap route and one
    # acceptance check; each part loads inside the function that needs it.
    # numpy 2 loads numpy.fft on first use, so grid imports it
    loaded = _fresh_python("import sys, fracbspde.cli; print(*sys.modules)").split()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    layers = ["numpy.fft"] + [f"fracbspde.{m}" for m in ("bspde", "grid", "kernel", "levy", "regression", "zakai")]
    assert set(layers) <= set(loaded)


@pytest.mark.parametrize("call, bits", [
    ("fracbspde.fraclap.c_alpha(1.5)", ["0x1.32633e6df28bfp-2"]),
    ("fracbspde.kernel.kernel_tail_mass(1.5, 10.0)", ["0x1.b327b34f61188p-7"]),
    # the KS statistic and its 1% critical value
    ("(lambda r: (r.measured, r.tolerance))(fracbspde.checks.check_stable_kernel_duality(7))",
     ["0x1.3e71e14fa8a00p-9", "0x1.51504b29b3430p-8"]),
])
def test_first_call_in_a_fresh_process_keeps_its_bits(call, bits):
    code = f"import fracbspde.cli, numpy as np; print([float(v).hex() for v in np.atleast_1d({call})])"
    assert _fresh_python(code) == f"{bits}\n"


@pytest.mark.skipif(not os.path.isfile(os.path.join(BENCH, "tracer.py")), reason="no bench/ in this checkout")
def test_cli_import_loads_every_module_the_bench_tracer_patches():
    # bench/tracer.py resolves each (module, function) of its TARGETS in
    # sys.modules when it installs; every module must be loaded by the time
    # fracbspde.cli is, not as a side effect of the tracer's own imports
    code = (
        "import sys, fracbspde.cli; loaded = set(sys.modules);"
        f"sys.path.insert(0, {BENCH!r}); import tracer;"
        "print(sorted({m for m, *_ in tracer.TARGETS} - loaded));"
        "[getattr(sys.modules[m], name) for m, name, *_ in tracer.TARGETS]"
    )
    assert _fresh_python(code) == "[]\n"


# one small call of each library function that bench/tracer.py counts arguments of
_COUNTED_CALLS = """
import sys
import numpy as np
from fracbspde import grid, kernel, levy, regression, zakai
sys.path.insert(0, BENCH)
import tracer

g = grid.Grid1D(-8.0, 8.0, 16)
zeros = np.zeros(g.n)
p0 = np.exp(-g.x**2)
prob = zakai.ControlProblem(g, 1.5, 0.1, lambda t: 1.0, lambda t, v: zeros, lambda t: zeros,
                            lambda t, v: zeros, zeros, (0.0,), p0 / (p0.sum() * g.dx))
policy = zakai.ControlPolicy.constant(0.0, prob.T)
design = np.column_stack([np.ones(4), np.arange(4.0)])
calls = {
    "solve_zakai": lambda: zakai.solve_zakai(prob, policy, np.zeros((2, 4)), n_steps=4),
    "cost_functional": lambda: zakai.cost_functional(prob, policy, np.zeros((2, 4)), n_steps=4),
    "project_expectation": lambda: regression.project_expectation(design, design[:, 1:]),
    "ensemble_process_norms": lambda: grid.ensemble_process_norms(
        np.random.default_rng(0).normal(size=(2, 3, 8)), grid.Grid1D(0.0, 1.0, 8), dt=0.5, beta=0.5),
    "eval_G": lambda: kernel.eval_G(np.array([0.5, 40.0]), 1.5),
    "deriv_G": lambda: kernel.deriv_G(np.array([0.5, 40.0]), 1.5, 1),
    "frac_lap_G": lambda: kernel.frac_lap_G(np.array([0.5, 40.0]), 1.5, 0.75),
    "sample_stable": lambda: levy.sample_stable(1.5, 0.1, np.random.default_rng(0), 4),
}
counted = {fn for module, fn, _, counter in tracer.TARGETS
           if counter is not None and module.startswith("fracbspde.")}
assert counted == set(calls), counted ^ set(calls)
t = tracer.Tracer()
still = []
with t.installed():
    for name, call in calls.items():
        before = dict(t.counts)
        call()
        if dict(t.counts) == before:
            still.append(name)
print(still)
"""


@pytest.mark.skipif(not os.path.isfile(os.path.join(BENCH, "tracer.py")), reason="no bench/ in this checkout")
def test_every_bench_tracer_counter_binds_and_moves():
    # each counter reads its function's arguments by name when the tracer is
    # installed; a renamed or dropped parameter fails here, not in a traced run
    assert _fresh_python(f"BENCH = {BENCH!r}" + _COUNTED_CALLS) == "[]\n"


# the one time axis: levy builds the step grid np.linspace(0, T, n + 1) of
# [0, T] (PathGrid.times), draws Brownian increments on it and sums
# increments into paths; every other module takes these from levy
STEP_GRID = re.compile(r"linspace\(\s*0(?:\.0)?\s*,[^,]+,[^,]+\+\s*1\s*\)")
BROWNIAN_DRAW = re.compile(r"normal\(\s*0(?:\.0)?\s*,\s*(?:np\.)?sqrt\(")
# the cumulative sums that are quadratures, not paths: grid's chain bound
# over time offsets and kernel's CDF
QUADRATURE_CUMSUMS = {"grid.py": 1, "kernel.py": 1}


def test_only_levy_builds_step_grids_draws_w_or_sums_paths():
    package = os.path.dirname(fracbspde.__file__)
    sources = {name: open(os.path.join(package, name)).read()
               for name in sorted(os.listdir(package)) if name.endswith(".py")}
    for name, text in sources.items():
        if name == "levy.py":
            continue
        assert STEP_GRID.findall(text) == [], name
        assert BROWNIAN_DRAW.findall(text) == [], name
        assert text.count("cumsum(") == QUADRATURE_CUMSUMS.get(name, 0), name
    # the patterns still see levy's own copies
    levy = sources["levy.py"]
    assert STEP_GRID.search(levy) and BROWNIAN_DRAW.search(levy) and "cumsum(" in levy


_NAN = float("nan")
_NAN_CALLS = {
    "levy.sample_stable dt": (lambda: fracbspde.levy.sample_stable(1.5, _NAN, np.random.default_rng(0), 3), "dt"),
    "kernel.frac_lap_G gamma": (lambda: fracbspde.kernel.frac_lap_G(np.zeros(3), 1.5, _NAN), "gamma"),
    "kernel.kernel_cdf A": (lambda: fracbspde.kernel.kernel_cdf(1.5, _NAN), "A"),
    "kernel.apply_semigroup_A A": (lambda: fracbspde.kernel.apply_semigroup_A(
        fracbspde.grid.GridFunction(fracbspde.grid.Grid1D(0.0, 1.0, 8), np.zeros(8)), _NAN, 1.5), "A"),
    "CoefficientA.constant c": (lambda: fracbspde.kernel.CoefficientA.constant(_NAN), "constant coefficient"),
    "CoefficientA.from_callable func": (lambda: fracbspde.kernel.CoefficientA.from_callable(
        lambda t: np.where(t > 0.5, _NAN, 1.0), 1.0), "coefficient func"),
}


@pytest.mark.parametrize("name", sorted(_NAN_CALLS))
def test_a_nan_parameter_is_an_error_that_names_it(name):
    # a guard written `x <= 0` is False for NaN and let it through to a NaN
    # result or to a later error about something else
    call, param = _NAN_CALLS[name]
    with pytest.raises(fracbspde.errors.FracBspdeError, match=rf"^{param} .*nan"):
        call()
