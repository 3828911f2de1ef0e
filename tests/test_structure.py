"""Module boundaries, seeded randomness and single loops, checked on the package's syntax trees.

Keeping the padding and truncation decisions behind public functions of
`spectral` is what lets them be written exactly once.  Drawing only from
explicitly seeded generators is what makes reruns reproduce their digests, and
building them in one helper keeps a campaign on one pair of streams.
Marching in one loop and building every trajectory's table in one function is what keeps
the record rule and the value columns from drifting apart between commands.
Calling numpy.fft from `spectral` alone keeps the half layout and the Nyquist
split written once, and spelling each call np.fft.<name>(...) keeps every
transform visible to a tracer that replaces numpy.fft's functions.  Staging,
writing and promoting run directories in `cli._run` alone is what keeps every
command's artifacts, manifest and exit code alike.
Calling no LAPACK routine (np.polyfit, np.linalg) keeps the buffers OpenBLAS maps for it,
about 1 MB of peak RSS, out of every command, and calling no numpy sort keeps its kernels,
0.25-0.38 MB, out as well.
Letting the numerics raise only on bad input and divergence is what leaves every
gate to `cli`, where a failed one is a recorded check, not a run with no outputs.
Keeping spectra in the one half layout, checked for realness once by the `Spectrum`
constructor, is what spares every module a layout conversion and a second check.
Building each spectral operator in one place (one irfft, one free-group builder, one
derivative symbol) is what keeps the rotation that C01 checks the one the integrators run.
Forming |d_k|^2 in one weighted Parseval sum (`norms.row_squares`) is what keeps the records,
the march's guard and Picard's distances measuring the same norm the same way.
Writing each precondition once, in the module that enforces it (the campaign table and the
estimates' validity ranges in `estimates`, the step tolerance in `dynamics`), and having
`cli` ask that module is what keeps config validation and the numerics from drifting apart.
Building each run input once, in `RunConfig._validate`, through the constructor that checks
it (the `CoefficientSet` constructor is the one coefficient gate), is what keeps a run
computing on the very objects its config check accepted.
Letting the command alone pick the solver (no code reads `solver.method`, and the march's
horizon rule is asked by `run_simulate` alone) is what keeps a rule of one solver off the other.
Giving each choice one selector (the `radius` command alone tracks sigma, the lower bound has
one formula, and every campaign returns a list of reports with the CSV's columns) is what
keeps two ways of asking for one output from drifting apart.  Taking both radius bounds from
closed-form formulas in the run's measurements, with no fitted constant, is what keeps them
bounds on every run they apply to.  Taking every gate's tolerance from one table of
constants in `cli`, read by no config key and computed from no config read, is what keeps a
config from moving a verdict; `solver.tol` stops the Picard iteration and judges nothing.
Keeping the tail fit's noise floor, the march's blow-up ceiling and the failure demo's s as
constants of the modules that use them, with no key and no parameter, keeps a config from
moving the outcomes they shape as well.  Reading no switch that turns a Picard gate or the
failure demo off, and giving `picard_solve` no such parameter, keeps a config from removing a
verdict.  Keeping in the schema only the keys some module reads, directly or in a section it
unpacks whole, is what keeps a run id and a manifest holding only what the run computed from;
the output root is no key.
Freezing every result record the package returns, with each value held once and the estimate
CSV's columns read from `TrialReport`'s fields, is what keeps a record's copies of one value
from drifting apart.

Every guard takes a package module's tree and facts from `_index`, which reads and parses each
module once.  No guard edits what the index holds, so no guard's result depends on which
guards ran before it; `_trees_unchanged` checks that for the trees.
"""

import ast
import builtins
import collections
import dataclasses
import functools
import inspect
import pathlib

import pytest

import kdvbbm
from kdvbbm import analyticity, cli, dynamics, estimates
from kdvbbm.analyticity import BoundInputs, RadiusFit, TrackedRun
from kdvbbm.dynamics import PicardDiagnostics, Trajectory
from kdvbbm.estimates import CAMPAIGNS, FailureDemo, TrialReport

PACKAGE = pathlib.Path(kdvbbm.__file__).resolve().parent


@dataclasses.dataclass(frozen=True)
class Facts:
    """What several guards ask of one tree, gathered in one walk by _facts."""

    calls: dict  # callee -> the innermost enclosing function of each of its calls
    reads: dict  # key -> (section, line) of each subscript load or .get call of it
    spelled: dict  # string -> lines spelling it other than as a key of a dict literal
    whole: frozenset  # the sections unpacked whole into a call
    defined: dict  # name -> node of the functions and classes defined


def _facts(tree):
    """The Facts of tree.  A call's callee is the name or attribute called.  A read's key is a
    string constant, and its section the string subscript it reads from (cfg.data["run"] in
    cfg.data["run"]["seed"]) or the one a name is bound to (sol = cfg.data["solver"], or
    ana, est = ..., ...), else None; a store such as checks[key] = ... reads nothing.  A
    section is unpacked whole by f(**x) or f(**{k: v for k, v in x.items() ...}).  Reads
    and unpacks inside the _SCHEMA assignment, which declares the keys, are skipped."""
    calls, reads, spelled = (collections.defaultdict(list) for _ in range(3))
    whole, defined, dict_keys = set(), {}, set()

    def string(node):
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None

    def section(node, bound):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        return string(node.slice) if isinstance(node, ast.Subscript) else None

    def read(base, key, bound, line):
        if (key := string(key)) is not None:
            reads[key].append((section(base, bound), line))

    def visit(node, where, bound, schema):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
            if not isinstance(node, ast.ClassDef):
                where, bound = node.name, dict(bound)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            schema = schema or getattr(target, "id", None) == "_SCHEMA"
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            bound.update((t.id, section(v, bound)) for t, v in pairs if isinstance(t, ast.Name))
        elif isinstance(node, ast.Call):
            func = node.func
            calls[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)].append(where)
            if isinstance(func, ast.Attribute) and func.attr == "get" and node.args and not schema:
                read(func.value, node.args[0], bound, node.lineno)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and not schema:
            read(node.value, node.slice, bound, node.lineno)
        elif isinstance(node, ast.keyword) and node.arg is None and not schema:
            mapping = node.value
            if isinstance(mapping, ast.DictComp):
                items = mapping.generators[0].iter
                if isinstance(items, ast.Call) and getattr(items.func, "attr", None) == "items":
                    mapping = items.func.value
            if (unpacked := section(mapping, bound)) is not None:
                whole.add(unpacked)
        elif isinstance(node, ast.Dict):
            dict_keys.update(map(id, node.keys))
        elif string(node) is not None and id(node) not in dict_keys:
            spelled[node.value].append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, where, bound, schema)

    visit(tree, "<module>", {}, False)
    return Facts(dict(calls), dict(reads), dict(spelled), frozenset(whole), defined)


@dataclasses.dataclass(frozen=True)
class Module:
    """A package module as the index holds it, for guards to read and never to edit."""

    text: str
    tree: ast.Module
    facts: Facts


@functools.cache
def _index():
    """name -> Module of every package module: its text, its tree parsed once and its Facts."""
    index = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=path.name)
        index[path.name] = Module(text, tree, _facts(tree))
    return index


@pytest.fixture(scope="module", autouse=True)
def _trees_unchanged():
    dumps = {name: ast.dump(module.tree) for name, module in _index().items()}
    yield
    assert {name: ast.dump(module.tree) for name, module in _index().items()} == dumps


def _package_lines(find, *args):
    """What find(tree, name, *args) reports for every package module, in file order."""
    return [line for name, module in _index().items() for line in find(module.tree, name, *args)]


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(tree, name):
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "kdvbbm":
            continue
        source = "." * node.level + module
        if _is_private(module.split(".")[-1]):
            yield f"{name}:{node.lineno} imports from private module {source}"
        for alias in node.names:
            if _is_private(alias.name):
                yield f"{name}:{node.lineno} imports {alias.name} from {source}"


def test_no_private_names_imported_across_modules():
    assert len(_index()) > 5
    assert _package_lines(_private_imports) == []


#: numpy.random names that create or seed a generator; the rest read or move global state.
SEEDED_RANDOM = {
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}


def _global_rng_uses(tree, name):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
            and node.attr not in SEEDED_RANDOM
        ):
            yield f"{name}:{node.lineno} uses numpy.random.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in SEEDED_RANDOM:
                    yield f"{name}:{node.lineno} imports numpy.random.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "random" for alias in node.names):
                yield f"{name}:{node.lineno} imports numpy.random under another name"
        elif isinstance(node, ast.Import):
            if any(alias.name == "numpy.random" for alias in node.names):
                yield f"{name}:{node.lineno} imports numpy.random under another name"


def test_guard_flags_global_rng_state():
    source = (
        "import numpy as np\n"
        "from numpy.random import rand\n"
        "np.random.seed(0)\n"
        "x = np.random.standard_normal(3)\n"
        "rng = np.random.default_rng(np.random.SeedSequence(0))\n"
    )
    assert len(list(_global_rng_uses(ast.parse(source), "bad.py"))) == 3


def test_randomness_is_explicitly_seeded():
    assert _package_lines(_global_rng_uses) == []


def _call_sites(facts, name, callee):
    """"file:function" of every call of callee, named by its innermost enclosing function."""
    return [f"{name}:{where}" for where in facts.calls.get(callee, ())]


def _package_call_sites(callee):
    return [site for name, module in _index().items() for site in _call_sites(module.facts, name, callee)]


def test_run_inputs_built_once():
    # RunConfig._validate builds the coefficients, grid and datum, and the runners read them
    facts = _index()["cli.py"].facts
    builders = ("CoefficientSet", "derive_coefficients", "SpectralGrid", "cos_mode", "gaussian",
                "gevrey_synthetic")
    for callee in builders:
        assert _call_sites(facts, "cli.py", callee) == ["cli.py:_validate"], callee
    # the run's Gevrey indices too: the runners and tracked_run pass the index they are given
    assert _call_sites(facts, "cli.py", "GevreyIndex") == ["cli.py:_validate"] * 2
    tracked = _index()["analyticity.py"].facts.defined["tracked_run"]
    assert _call_sites(_facts(tracked), "analyticity.py", "GevreyIndex") == []
    # X0 too, through gevrey_norm, which owns the overflow of the weights and of the norm;
    # the Picard cross-check is the one other Gevrey norm the command line takes
    assert _call_sites(facts, "cli.py", "gevrey_norm") == ["cli.py:_validate", "cli.py:run_picard"]
    assert _call_sites(facts, "cli.py", "gevrey_weights") == []
    # the runners read the grid and the index built (cfg.grid, cfg.gevrey_index), not the
    # raw keys they were built from
    for func in ast.walk(_index()["cli.py"].tree):
        if isinstance(func, ast.FunctionDef) and func.name != "_validate":
            for key in ("half_length", "sigma0"):
                assert _key_reads(_facts(func), "cli.py", key) == [], (func.name, key)
    # the Spectrum constructor is the field gate: no second finiteness scan of the samples
    spectral = _index()["spectral.py"]
    gate = ast.get_source_segment(spectral.text, spectral.facts.defined["spectrum_from_samples"])
    assert "isfinite" not in gate
    # the constructor is the coefficient gate: no second check of the invariants
    assert _package_call_sites("validate_coefficients") == []
    checkers = ("validate_coefficients", "ValidationReport", "CheckResult")
    assert [name for module in _index().values() for name in module.facts.defined if name in checkers] == []


def test_generators_built_in_one_helper():
    # a campaign draws from one pair of streams, never from a generator per trial or field
    for callee in ("default_rng", "SeedSequence"):
        assert set(_package_call_sites(callee)) == {"estimates.py:_streams"}, callee


def test_trials_drawn_by_estimates_command_alone():
    # the existence constant is a closed-form bound, so simulate, radius and picard draw no
    # random numbers; the randomized campaigns run only for the estimates command
    assert _package_call_sites("run_trials") == ["cli.py:run_estimates"]


def test_guard_flags_copied_loops():
    source = (
        "def run(eta0, dt):\n"
        "    stepper = IFRK4Stepper(eta0.grid, coeffs, dt)\n"
        "    for i in range(10):\n"
        "        traj = kb.Trajectory(eta0.grid, i * dt, stepper.step(eta0.half))\n"
        "    def inner():\n"
        "        return Trajectory(eta0.grid, 0.0, None)\n"
        "    return dynamics.IFRK4Stepper(eta0.grid, coeffs, dt)\n"
    )
    facts = _facts(ast.parse(source))
    assert _call_sites(facts, "bad.py", "Trajectory") == ["bad.py:run", "bad.py:inner"]
    assert _call_sites(facts, "bad.py", "IFRK4Stepper") == ["bad.py:run", "bad.py:run"]


def test_one_trajectory_builder():
    # every trajectory, marched or solved, is built by one function from its stacked states
    assert _package_call_sites("Trajectory") == ["dynamics.py:_trajectory"]


def test_one_marching_loop():
    # evolve_ifrk4 alone builds a stepper and steps it; others hook into its loop
    assert _package_call_sites("IFRK4Stepper") == ["dynamics.py:evolve_ifrk4"]


def test_one_run_driver():
    # runners return their artifacts and checks; only the driver stages and writes them
    for callee in ("RunDirectory", "_manifest", "_write_csv"):
        assert _package_call_sites(callee) == ["cli.py:_run"], callee


def test_one_json_writer():
    # every JSON file goes through one strict writer, so none carries NaN or Infinity
    assert _package_call_sites("dump") == ["cli.py:_write_json"]


def _fft_uses(tree, name):
    """Lines of tree that reach numpy.fft, by attribute, import or import-from."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "fft"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield f"{name}:{node.lineno} uses numpy.fft"
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
            yield f"{name}:{node.lineno} imports numpy.fft"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
            yield f"{name}:{node.lineno} imports from numpy.fft"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "fft" for alias in node.names):
                yield f"{name}:{node.lineno} imports numpy.fft under another name"


def test_guard_flags_fft_outside_spectral():
    source = (
        "import numpy as np\n"
        "import numpy.fft\n"
        "from numpy.fft import rfft\n"
        "from numpy import fft as f\n"
        "x = np.fft.irfft([1.0, 0.0])\n"
        "y = numpy.fft.fft([1.0])\n"
        "z = np.linalg.norm([1.0])\n"
    )
    assert len(list(_fft_uses(ast.parse(source), "bad.py"))) == 5


def test_fft_only_in_spectral():
    # spectral holds the one layout and Nyquist convention; every transform goes through it
    lines = _package_lines(_fft_uses)
    assert [line for line in lines if not line.startswith("spectral.py:")] == []
    assert [line for line in lines if line.startswith("spectral.py:")]


def _unspelled_fft_uses(tree, name):
    """Lines of tree that reach numpy.fft other than by a call spelled np.fft.<name>(...)."""
    spelled = {
        id(node.func.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Attribute)
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "np"
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "fft"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and id(node) not in spelled
        ):
            yield f"{name}:{node.lineno} reaches numpy.fft without calling np.fft.<name>"
    yield from (line for line in _fft_uses(tree, name) if " imports " in line)


def test_guard_flags_unspelled_fft_calls():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "from numpy.fft import rfft\n"
        "irfft = np.fft.irfft\n"
        "x = numpy.fft.irfft([1.0, 0.0])\n"
        "y = np.fft.fft([1.0])\n"
        "z = getattr(np.fft, 'ifft')([1.0])\n"
    )
    assert len(list(_unspelled_fft_uses(ast.parse(source), "bad.py"))) == 4


def test_fft_calls_spelled_out():
    # perfbench traces the transforms by replacing the functions of numpy.fft at run time,
    # which a name bound at import would escape; every call looks them up where it runs
    assert _package_lines(_unspelled_fft_uses) == []


#: numpy names whose calls run LAPACK: each maps OpenBLAS's buffers, about 1 MB of peak RSS
LAPACK_NAMES = {"polyfit", "linalg"}


def _lapack_uses(tree, name):
    """Lines of tree that reach numpy.polyfit or numpy.linalg, by attribute or import."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in LAPACK_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield f"{name}:{node.lineno} uses numpy.{node.attr}"
        elif isinstance(node, ast.Import) and any(
            a.name.split(".")[:2] == ["numpy", "linalg"] for a in node.names
        ):
            yield f"{name}:{node.lineno} imports numpy.linalg"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            yield f"{name}:{node.lineno} imports from numpy.linalg"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name in LAPACK_NAMES for alias in node.names):
                yield f"{name}:{node.lineno} imports numpy's LAPACK names"


def test_guard_flags_lapack_calls():
    source = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy.linalg import lstsq\n"
        "from numpy import polyfit\n"
        "a = np.polyfit([0.0, 1.0], [0.0, 1.0], 1)\n"
        "b = numpy.linalg.norm([1.0])\n"
        "c = np.linalg.solve([[1.0]], [1.0])\n"
        "d = np.ones((2, 2)) @ np.ones(2)\n"
    )
    assert len(list(_lapack_uses(ast.parse(source), "bad.py"))) == 6


def test_no_lapack_calls():
    # matrix products (@, BLAS) are allowed; a least-squares line is two sums in closed form
    assert _package_lines(_lapack_uses) == []


#: numpy's sorts: the first call maps numpy's sort kernels, 0.25-0.38 MB of peak RSS
SORT_NAMES = {"argsort", "sort", "lexsort", "partition", "argpartition"}


def _sort_uses(tree, name):
    """Lines of tree that reach a numpy sort, by attribute or import."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in SORT_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield f"{name}:{node.lineno} uses numpy.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            if any(alias.name in SORT_NAMES for alias in node.names):
                yield f"{name}:{node.lineno} imports numpy's sorts"


def test_guard_flags_sort_calls():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import sort\n"
        "from numpy import argpartition as ap\n"
        "a = np.argsort([2, 1])\n"
        "b = numpy.lexsort(([1, 2],))\n"
        "c = np.partition([3, 1, 2], 1)\n"
        "key, _, value = 'a=b'.partition('=')\n"
        "d = sorted([2, 1])\n"
    )
    assert len(list(_sort_uses(ast.parse(source), "bad.py"))) == 5


def test_no_sort_calls():
    # the modes' order is known in closed form, so no output needs a sort to be ordered
    assert _package_lines(_sort_uses) == []


def _raised(tree, name):
    """"file:line name" of every raise statement, by the raised class's name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            what = "re-raise" if exc is None else getattr(exc, "id", getattr(exc, "attr", "?"))
            yield f"{name}:{node.lineno} {what}"


def test_guard_flags_raised_classes():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('bad input')\n"
        "    raise CollapseError(1.0, 0.0, 1.0)\n"
        "def g():\n"
        "    try:\n"
        "        raise errors.MeshError\n"
        "    except ValueError:\n"
        "        raise\n"
    )
    assert sorted(_raised(ast.parse(source), "bad.py")) == [
        "bad.py:3 ValueError", "bad.py:4 CollapseError",
        "bad.py:7 MeshError", "bad.py:9 re-raise",
    ]


#: what the numerics may raise: bad input, and in dynamics a diverging march or solve
NUMERICS_RAISE = {
    "analyticity.py": {"ValueError"},
    "dynamics.py": {"ValueError", "BlowUpError", "NoConvergenceError"},
}


def test_numerics_leave_gates_to_cli():
    # a tolerance judged by raising would end the run with nothing on disk
    offenders = [
        line
        for name, allowed in NUMERICS_RAISE.items()
        for line in _raised(_index()[name].tree, name)
        if line.split()[-1] not in allowed
    ]
    assert offenders == []


def _symmetry_raisers(tree, name):
    """"file:scope" of every statement raising SymmetryError in tree, scope the names of the
    enclosing classes and functions joined by dots."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "SymmetryError":
                sites.append(f"{name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return sites


def test_one_real_field_gate():
    # a spectrum is checked for realness once, when it is built; nothing downstream re-checks
    assert _package_lines(_symmetry_raisers) == ["spectral.py:Spectrum.__post_init__"]


#: names of the FFT-layout converters and checks that the one half layout made unnecessary
FFT_LAYOUT_NAMES = (
    "full_spectrum", "half_spectrum", "transform_inverse", "RealField", "hermitian_defect",
)


def test_guard_flags_fft_layout_names():
    source = (
        "def full_spectrum(d):\n"
        "    return d\n"
        "class RealField:\n"
        "    def hermitian_defect(self):\n"
        "        return half_spectrum(self)\n"
    )
    facts = _facts(ast.parse(source))
    assert sorted(set(facts.defined) & set(FFT_LAYOUT_NAMES)) == [
        "RealField", "full_spectrum", "hermitian_defect",
    ]
    assert _call_sites(facts, "bad.py", "half_spectrum") == ["bad.py:hermitian_defect"]


def test_one_spectrum_layout():
    # spectra live in half layout alone; spectrum_csv_rows writes the FFT order itself
    for name, module in _index().items():
        assert not set(module.facts.defined) & set(FFT_LAYOUT_NAMES), name
    for callee in FFT_LAYOUT_NAMES:
        assert _package_call_sites(callee) == [], callee


def test_guard_flags_irfft_call_sites():
    source = (
        "import numpy as np\n"
        "def synthesize(d):\n"
        "    return np.fft.irfft(d, 8, norm='forward')\n"
        "def padded(d, out):\n"
        "    return numpy.fft.irfft(d, 16, out=out)\n"
    )
    assert _call_sites(_facts(ast.parse(source)), "bad.py", "irfft") == ["bad.py:synthesize", "bad.py:padded"]


def test_one_inverse_transform():
    # every synthesis, n points or padded, goes through one irfft; the truncation likewise
    assert _package_call_sites("irfft") == ["spectral.py:half_samples"]


def _symbol_readers(tree, name, kind):
    """"file:function" of every function that calls symbol_on_grid and names the symbol kind
    as a string anywhere in its body, so a kind passed through a loop or a tuple counts."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = list(ast.walk(node))
        calls = any(
            isinstance(n, ast.Call)
            and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None))
            == "symbol_on_grid"
            for n in inner
        )
        if calls and any(isinstance(n, ast.Constant) and n.value == kind for n in inner):
            yield f"{name}:{node.name}"


def test_guard_flags_symbol_readers():
    source = (
        "def symbols(grid, coeffs):\n"
        "    return [symbol_on_grid(grid, coeffs, k) for k in ('phi', 'tau')]\n"
        "def rotation(grid, coeffs, t):\n"
        "    return np.exp(-1j * t * spectral.symbol_on_grid(grid, coeffs, 'phi'))\n"
        "def tendency(grid, coeffs):\n"
        "    return symbol_on_grid(grid, coeffs, 'psi')\n"
        "def label():\n"
        "    return 'phi'\n"
    )
    assert sorted(_symbol_readers(ast.parse(source), "bad.py", "phi")) == ["bad.py:rotation", "bad.py:symbols"]


def test_one_free_group_builder():
    # S(t) = e^{-i phi t} is built in one place, for the IFRK4 marcher, the Picard mesh and
    # linear_propagate alike; the antisymmetry campaign reads phi itself, the generator of
    # S(t), to check (v, i phi v) = 0
    readers = _package_lines(_symbol_readers, "phi")
    assert sorted(readers) == ["dynamics.py:_free_group", "estimates.py:_antisymmetry_values"]


def _derivative_symbols(tree, name):
    """Lines of tree that multiply an expression holding a complex constant by one reading
    .wavenumbers, written with * or np.multiply: a derivative symbol built in place."""

    def is_imaginary(node):
        return any(isinstance(n, ast.Constant) and type(n.value) is complex for n in ast.walk(node))

    def reads_wavenumbers(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "wavenumbers" for n in ast.walk(node))

    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "multiply":
            operands = tuple(node.args[:2])
        else:
            continue
        if any(map(is_imaginary, operands)) and any(map(reads_wavenumbers, operands)):
            yield f"{name}:{node.lineno} builds i*xi"


def test_guard_flags_derivative_symbols():
    source = (
        "import numpy as np\n"
        "a = 1j * grid.wavenumbers\n"
        "b = np.append(grid.wavenumbers[:-1] * 1j, 0.0)\n"
        "c = -1j * np.pi * g.wavenumbers\n"
        "d = np.multiply(1j, grid.wavenumbers)\n"
        "e = 2.0 * grid.wavenumbers\n"
        "f = -1j * tau\n"
    )
    assert len(list(_derivative_symbols(ast.parse(source), "bad.py"))) == 4


def test_one_derivative_symbol():
    # i*xi, 0 at the unpaired mode, is SpectralGrid.derivative; the tendency and the
    # derivative-square campaign read it there
    lines = _package_lines(_derivative_symbols)
    assert [line for line in lines if not line.startswith("spectral.py:")] == []
    assert [line for line in lines if line.startswith("spectral.py:")]


def _squared_moduli(tree, name):
    """"file:function" of every top-level function or method that squares a modulus: a .real
    or .imag part or an abs() (by ** 2, np.square or a product with itself), directly, through
    the out= buffer of the abs() call or through the name it is assigned to.  Only the sites
    of the package's weighted |d_k|^2 sums may hold such a square."""

    def callee(node):
        if not isinstance(node, ast.Call):
            return None
        return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)

    def squared(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if isinstance(node.right, ast.Constant) and node.right.value == 2:
                return node.left
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if ast.unparse(node.left) == ast.unparse(node.right):
                return node.left
        if callee(node) == "square" and node.args:
            return node.args[0]
        if callee(node) == "multiply" and len(node.args) >= 2:
            if ast.unparse(node.args[0]) == ast.unparse(node.args[1]):
                return node.args[0]
        return None

    def flags(func):
        moduli = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr in ("real", "imag"):
                moduli.add(ast.unparse(node))
            elif callee(node) in ("abs", "absolute"):
                moduli.add(ast.unparse(node))
                moduli.update(ast.unparse(k.value) for k in node.keywords if k.arg == "out")
            if isinstance(node, ast.Assign) and callee(node.value) in ("abs", "absolute"):
                moduli.update(ast.unparse(t) for t in node.targets)
        return any(
            (operand := squared(node)) is not None and ast.unparse(operand) in moduli
            for node in ast.walk(func)
        )

    tops = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    funcs += [n for c in tops for n in c.body if isinstance(n, ast.FunctionDef)]
    return [f"{name}:{func.name}" for func in funcs if flags(func)]


def test_guard_flags_squared_moduli():
    source = (
        "import numpy as np\n"
        "def size(d, p, power):\n"
        "    np.abs(d, out=power)\n"
        "    np.multiply(power, power, out=power)\n"
        "    return np.sum(p * power)\n"
        "def profile(w, d):\n"
        "    def step(t, d):\n"
        "        return w * (d.real**2 + d.imag**2)\n"
        "    return step\n"
        "def full(c):\n"
        "    return np.sum(np.abs(c) ** 2)\n"
        "class Tracker:\n"
        "    def magnitude(self, c):\n"
        "        m = np.abs(c)\n"
        "        return np.square(m)\n"
        "def products(d):\n"
        "    return d.real * d.real + np.multiply(d.imag, d.imag)\n"
        "def harmless(d, xi):\n"
        "    return np.abs(d) * xi**2 + d.real * xi\n"
    )
    assert _squared_moduli(ast.parse(source), "bad.py") == [
        "bad.py:size", "bad.py:profile", "bad.py:full", "bad.py:products", "bad.py:magnitude",
    ]


def test_one_weighted_parseval_sum():
    # records, the march's guard, Picard's distances, the h2 band and the sigma tracker's
    # profile, p_k = 2L w_k |d_k|^2 (the out array of row_squares), all read norms.row_squares
    assert _package_lines(_squared_moduli) == ["norms.py:row_squares"]


def _campaign_tables(tree, name):
    """Lines of tree that name MULTILINEAR (imported, read or assigned) or spell two or more
    campaign names in one tuple, list, set or dict literal: a copy of the campaign table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "MULTILINEAR":
            yield f"{name}:{node.lineno} reads MULTILINEAR"
        elif isinstance(node, ast.Attribute) and node.attr == "MULTILINEAR":
            yield f"{name}:{node.lineno} reads MULTILINEAR"
        elif isinstance(node, ast.alias) and node.name == "MULTILINEAR":
            yield f"{name}:{node.lineno} imports MULTILINEAR"
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            items = node.keys if isinstance(node, ast.Dict) else node.elts
            spelled = [n for n in items if isinstance(n, ast.Constant) and n.value in CAMPAIGNS]
            if len(spelled) >= 2:
                yield f"{name}:{node.lineno} lists campaigns"


def _step_arithmetic(tree, name):
    """Lines of tree that divide, floor-divide or take a remainder of an expression reading
    a horizon T or a step dt (a name or a key): a march's step count worked out in place."""

    def reads_step(node):
        return any(
            (isinstance(n, ast.Name) and n.id in ("T", "dt"))
            or (isinstance(n, ast.Constant) and n.value in ("T", "dt"))
            for n in ast.walk(node)
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            operands = (node.left, node.right)
        elif isinstance(node, ast.Call) and (
            node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        ) in ("divmod", "fmod", "remainder", "divide", "floor_divide", "mod"):
            operands = tuple(node.args)
        else:
            continue
        if any(map(reads_step, operands)):
            yield f"{name}:{node.lineno} divides by or into T or dt"


def test_guard_flags_copied_preconditions():
    source = (
        "import math\n"
        "from .estimates import MULTILINEAR, campaign\n"
        "NAMES = tuple(MULTILINEAR) + ('interpolation', 'splitting_r1', 'antisymmetry')\n"
        "RANGES = {'bilinear_omega': 0.0, 'derivsq_psi': 1.0}\n"
        "def check(sol, est):\n"
        "    if est['s'] < estimates.MULTILINEAR['derivsq_psi'][1]:\n"
        "        raise ValueError\n"
        "    n_steps = round(sol['T'] / sol['dt'])\n"
        "    lag = math.fmod(T, step)\n"
        "    return name == 'interpolation', sol['T'] * 2.0, 1.0 / n_steps\n"
    )
    tree = ast.parse(source)
    assert len(list(_campaign_tables(tree, "bad.py"))) == 5
    assert len(list(_step_arithmetic(tree, "bad.py"))) == 2


def test_one_owner_per_precondition():
    # estimates owns the campaign table and each estimate's range of s, dynamics the step
    # tolerance (step_count); cli validates a config by asking them
    tables = _package_lines(_campaign_tables)
    assert tables and all(line.startswith("estimates.py:") for line in tables)
    assert list(_step_arithmetic(_index()["cli.py"].tree, "cli.py")) == []
    assert list(_step_arithmetic(_index()["dynamics.py"].tree, "dynamics.py"))


def _key_reads(facts, name, key):
    """Lines that spell key other than as a key of a dict literal."""
    return [f"{name}:{line} reads {key!r}" for line in facts.spelled.get(key, ())]


def test_guard_flags_key_reads():
    source = (
        "SCHEMA = {'solver': {'method': ('ifrk4', str)}}\n"
        "def pick(sol):\n"
        "    return sol['method'] == 'ifrk4' or sol.get('method')\n"
    )
    assert len(_key_reads(_facts(ast.parse(source)), "bad.py", "method")) == 2


def _package_key_reads(key):
    return [line for name, module in _index().items() for line in _key_reads(module.facts, name, key)]


def test_command_picks_the_solver():
    # solver.method stays a schema key that nothing reads; the march's horizon rule
    # (dynamics.step_count) is asked by the march and by run_simulate, which simulate and
    # radius run, and not by config validation or picard
    assert _package_key_reads("method") == []
    assert _package_call_sites("step_count") == ["cli.py:run_simulate", "dynamics.py:evolve_ifrk4"]


def test_radius_alone_tracks_sigma():
    # analyticity.enabled stays a schema key that nothing reads; radius is the one command
    # whose runner is asked to track
    assert _package_key_reads("enabled") == []
    tracking = [name for name, (_, options, _) in cli._COMMANDS.items() if options.get("tracking")]
    assert tracking == ["radius"]


def _tolerance_literals(tree, name):
    """Lines of tree with a float literal other than 0, 1 and 2: a tolerance spelled inline."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value not in (0, 1, 2):
            yield f"{name}:{node.lineno} spells {node.value!r}"


def test_guard_flags_tolerance_literals():
    source = (
        "def gate(worst, sigmas, hats):\n"
        "    ok = worst <= 1.0 + 1e-12 and all(h >= 0.95 * s for h, s in zip(hats, sigmas))\n"
        "    return ok, 2.0 * worst - 0.0\n"
    )
    flagged = list(_tolerance_literals(ast.parse(source), "bad.py"))
    assert flagged == ["bad.py:2 spells 1e-12", "bad.py:2 spells 0.95"]


def _bound_names(node):
    """The names a binding target binds."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _reads_config(node, tainted):
    """Whether node reads the config: a string subscript (sol["tol"], cfg.data["solver"]) or a
    tainted name, other than inside the arguments of a call of a function of the package (a
    solve or a march returns what the run measured).  Builtins, methods and numpy or math
    functions pass a read through."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        if isinstance(node.slice.value, str):
            return True
    if isinstance(node, ast.Name) and node.id in tainted:
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id not in dir(builtins):
            return False
    return any(_reads_config(child, tainted) for child in ast.iter_child_nodes(node))


def _config_thresholds(tree, name):
    """Lines of the function tree whose threshold reads the config (see _reads_config): the
    limit of a _check or _at_most call, or an operand of an ordering comparison, which is how
    a gate filters what it judges.  A name is tainted when it is bound from a config read."""
    tainted: set = set()
    while True:
        before = len(tainted)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if _reads_config(node.value, tainted):
                    tainted.update(*map(_bound_names, targets))
            elif isinstance(node, (ast.For, ast.comprehension)):
                if _reads_config(node.iter, tainted):
                    tainted.update(_bound_names(node.target))
        if len(tainted) == before:
            break
    limit_at = {"_at_most": 1, "_check": 2}
    lines = set()
    for node in ast.walk(tree):
        thresholds = []
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in limit_at:
            thresholds = node.args[limit_at[node.func.id]:][:1]
            thresholds += [k.value for k in node.keywords if k.arg == "limit"]
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
                thresholds = [node.left, *node.comparators]
        if any(_reads_config(t, tainted) for t in thresholds):
            lines.add(node.lineno)
    return [f"{name}:{line} judges against a config read" for line in sorted(lines)]


def test_guard_flags_config_thresholds():
    source = (
        "def gate(cfg, checks):\n"
        "    sol = cfg.data['solver']\n"
        "    traj, diag = picard_solve(cfg.initial_state, sol['T'], sol['tol'])\n"
        "    checks['a'] = _at_most(diag.mesh_delta, sol['tol'])\n"
        "    floor = 10.0 * sol['tol']\n"
        "    kept = [d for d in diag.distances if d > max(floor, 0.0)]\n"
        "    checks['b'] = _check(len(kept), True, limit=abs(sol['tol']))\n"
        "    checks['c'] = _at_most(diag.mesh_delta, TOLERANCES.mesh_refinement_limit)\n"
        "    return [d for d in traj.t if d > TOLERANCES.floor and sol['T'] == 'auto']\n"
    )
    flagged = _config_thresholds(ast.parse(source), "bad.py")
    assert flagged == [f"bad.py:{line} judges against a config read" for line in (4, 6, 7)]


def test_gate_tolerances_are_constants():
    # every gate takes its tolerance from the one table cli.TOLERANCES: cli reads no key of the
    # checks section, which keeps only the two keys the benchmark writes, the gates spell
    # no tolerance of their own, and no gate's limit or filter is computed from a config read
    # (solver.tol stops the Picard iteration and judges nothing)
    facts = _index()["cli.py"].facts
    assert set(cli._SCHEMA["checks"]) == {"existence_trials", "existence_seed"}
    for key in ("checks", *cli._SCHEMA["checks"]):
        assert _key_reads(facts, "cli.py", key) == [], key
    gates = {"_simulate_checks", "_growth_bound", "run_picard", "run_estimates"}
    for name in gates:
        func = facts.defined.get(name)
        assert isinstance(func, ast.FunctionDef), name
        assert list(_tolerance_literals(func, name)) == []
        assert _config_thresholds(func, name) == []
    assert isinstance(cli.TOLERANCES, cli.GateTolerances)


def test_policy_knobs_are_constants():
    # the tail fit's floor, the march's ceiling and the failure demo's s are constants of
    # analyticity, dynamics and estimates: no schema leaf sets one, no module reads a key of
    # that name, and no library function takes the floor or the ceiling as a parameter
    removed = {"analyticity": "noise_floor", "solver": "blowup_factor", "estimates": "failure_s"}
    for section, key in removed.items():
        assert key not in cli._SCHEMA[section]
        assert _package_key_reads(key) == [], key
    for func in (dynamics.evolve_ifrk4, analyticity.tracked_run, analyticity.estimate_radius):
        assert not {"blowup_factor", "noise_floor"} & set(inspect.signature(func).parameters)
    assert (analyticity.NOISE_FLOOR, dynamics.BLOWUP_FACTOR, estimates.FAILURE_S) == (1e-8, 1e6, -0.5)


def _unread_leaves(schema, facts):
    """The dotted leaves section.key of schema that no Facts of facts (name -> Facts) reads:
    a leaf is read where its key is read from its section, or where its section is unpacked
    whole, outside the _SCHEMA literal."""
    whole = {section for f in facts.values() for section in f.whole}
    read = {(section, key) for f in facts.values() for key, sites in f.reads.items() for section, _ in sites}
    return [
        f"{section}.{key}"
        for section, keys in schema.items()
        for key in keys
        if section not in whole and (section, key) not in read
    ]


def test_guard_flags_unread_leaves():
    # est.s is read and ana.s is not; est.demo is a check's name, stored and never read; the
    # default of output.directory reads it inside _SCHEMA, which declares and reads nothing
    source = (
        "_SCHEMA = {'run': {'seed': (0, int), 'label': ('', str)}, 'grid': {'n': (4, int)},\n"
        "           'coef': {'a': (1.0, float), 'x': (None, dict)},\n"
        "           'output': {'directory': (DEFAULTS['output']['directory'], str)},\n"
        "           'ana': {'s': (2.0, float)}, 'est': {'s': (1.0, float), 'demo': (True, bool)}}\n"
        "def build(self):\n"
        "    ana, grid = self.data['ana'], self.data['grid']\n"
        "    coef = Coef(**{k: v for k, v in self.data['coef'].items() if k != 'x'})\n"
        "    return Grid(**grid), coef, {'label': self.data['run']['seed']}, ana\n"
        "def check(cfg, checks):\n"
        "    est = cfg.data['est']\n"
        "    checks['demo'] = {'s': est['s'], 'label': 'demo'}\n"
    )
    schema = {"run": ["seed", "label"], "grid": ["n"], "coef": ["a", "x"], "output": ["directory"],
              "ana": ["s"], "est": ["s", "demo"]}
    unread = _unread_leaves(schema, {"bad.py": _facts(ast.parse(source))})
    assert unread == ["run.label", "output.directory", "ana.s", "est.demo"]


#: The schema leaves kept while the benchmark writes them, each read by nothing (as
#: TestBenchmarkConfigs in test_cli.py lists them).
_BENCHMARK_ONLY = {
    "solver.method", "analyticity.enabled", "checks.existence_trials", "checks.existence_seed",
    "solver.mesh_check", "solver.crosscheck", "estimates.failure_demo",
}


def test_every_schema_leaf_is_read():
    # the config holds only what a run computes from: every leaf a module reads, directly or
    # in a section unpacked whole (the grid, the five direct coefficients), aside from the
    # keys the benchmark writes; a leaf read by nothing would move only the run id
    facts = {name: module.facts for name, module in _index().items()}
    assert set(_unread_leaves(cli._SCHEMA, facts)) == _BENCHMARK_ONLY


def _subscript_reads(facts, name, key):
    """Lines reading key as a subscript (x[key]) or through x.get(key), from any section; a
    store such as checks[key] = ... reads nothing."""
    return [f"{name}:{line} reads {key!r}" for _, line in facts.reads.get(key, ())]


def test_guard_flags_subscript_reads():
    source = (
        "def run(est, checks):\n"
        "    if est['failure_demo']:\n"
        "        checks['failure_demo'] = {'passed': est.get('failure_demo')}\n"
    )
    flagged = _subscript_reads(_facts(ast.parse(source)), "bad.py", "failure_demo")
    assert flagged == ["bad.py:2 reads 'failure_demo'", "bad.py:3 reads 'failure_demo'"]


def test_no_switch_turns_a_step_off():
    # solver.mesh_check, solver.crosscheck and estimates.failure_demo stay schema leaves while
    # the benchmark writes them, each accepting only true; cli reads none of them, so every
    # picard run judges both of its gates and every estimates run writes its failure demo
    facts = _index()["cli.py"].facts
    switches = [("solver", "mesh_check"), ("solver", "crosscheck"), ("estimates", "failure_demo")]
    kinds = set()
    for section, key in switches:
        assert _subscript_reads(facts, "cli.py", key) == [], key
        default, kind = cli._SCHEMA[section][key]
        assert default is True and kind(True, key) is True
        with pytest.raises(cli.ConfigError, match=f"^{key}: expected true"):
            kind(False, key)
        kinds.add(kind)
    assert len(kinds) == 1  # one type, defined once
    assert "mesh_check" not in inspect.signature(dynamics.picard_solve).parameters


def _tol_reads(tree, name):
    """Lines of tree reading the name tol other than in _picard_iterate's stopping test or
    its error message, or as an argument picard_solve passes to _picard_iterate."""
    allowed = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if func.name == "_picard_iterate" and isinstance(node, (ast.Compare, ast.JoinedStr)):
                allowed.update(map(id, ast.walk(node)))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_picard_iterate":
                allowed.update(id(arg) for arg in node.args)
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "tol" and isinstance(node.ctx, ast.Load) and id(node) not in allowed]
    return [f"{name}:{line} reads tol" for line in sorted(reads)]


def test_guard_flags_tol_reads():
    source = (
        "def _picard_iterate(tol):\n"
        "    if d < tol:\n"
        "        return f'{tol}'\n"
        "    return tol\n"
        "def picard_solve(tol):\n"
        "    _picard_iterate(tol)\n"
        "    return [r for r in ratios if r > 10.0 * tol]\n"
    )
    assert _tol_reads(ast.parse(source), "bad.py") == ["bad.py:4 reads tol", "bad.py:7 reads tol"]


def test_solver_tol_only_stops_picard():
    # the solve's tolerance is its stopping rule and nothing else, and its diagnostics hold
    # only what it measured: cli derives the ratios and judges both Picard gates
    assert _tol_reads(_index()["dynamics.py"].tree, "dynamics.py") == []
    assert [f.name for f in dataclasses.fields(PicardDiagnostics)] == ["distances", "mesh_delta"]


def test_one_lower_bound_formula():
    # the printed 3/2 form is a test oracle (tests/oracles.py), not a variant of the bound
    assert not hasattr(analyticity, "LOWER_BOUND_VARIANTS")
    assert list(inspect.signature(analyticity.lower_bound_radius).parameters) == ["t", "b"]


def test_bounds_from_formulas():
    # both radius bounds are closed-form in the run's measurements: no fitted constant, no
    # calibration prefix, and no config key to size one
    fields = [f.name for f in dataclasses.fields(analyticity.BoundInputs)]
    assert fields == ["sigma0", "X0", "Y0", "m"]
    assert "prefix_fraction" not in inspect.signature(analyticity.tracked_run).parameters
    assert not hasattr(analyticity, "calibrate_bounds")
    assert "calibration_fraction" not in cli._SCHEMA["analyticity"]


def test_one_report_shape(tmp_path):
    # every campaign returns a list of reports whose fields are the CSV's columns, so cli
    # spells no column of its own and names the interpolation campaign only where it gates
    # the worst ratio
    fields = [f.name for f in dataclasses.fields(TrialReport)]
    config = tmp_path / "c.yaml"
    config.write_text("grid: {n_modes: 16}\nestimates: {n_trials: 2, failure_ks: [8, 16]}\n")
    assert cli.main(["estimates", str(config), "--out", str(tmp_path / "runs")]) in (0, 1)
    (rundir,) = (tmp_path / "runs").iterdir()
    headers = {p.name: p.read_text().splitlines()[0] for p in rundir.glob("*.csv")}
    assert headers.pop("failure_demo.csv") == "k,n_modes,ratio"
    assert headers == {f"{name}.csv": ",".join(fields) for name in CAMPAIGNS}
    module = _index()["cli.py"]
    assert list(_column_tuples(module.tree, "cli.py", fields)) == []
    assert len(_key_reads(module.facts, "cli.py", "interpolation")) == 1


def _column_tuples(tree, name, columns):
    """Lines of tree with a tuple or list literal spelling two or more of columns: a copy
    of a record's field names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List)):
            spelled = [e for e in node.elts if isinstance(e, ast.Constant) and e.value in columns]
            if len(spelled) >= 2:
                yield f"{name}:{node.lineno} spells columns"


def test_guard_flags_column_tuples():
    source = (
        "COLUMNS = ('lemma_id', 's', 'sigma')\n"
        "def rows(reports):\n"
        "    return [[getattr(r, c) for c in ['ratio_max', 'ratio_mean']] for r in reports]\n"
        "SIGMA = ('t', 'sigma')\n"
    )
    columns = [f.name for f in dataclasses.fields(TrialReport)]
    assert len(list(_column_tuples(ast.parse(source), "bad.py", columns))) == 2


#: the records the package returns: marches and solves, tracked runs, tail fits and the
#: bound inputs, campaign reports and the failure demo
RESULT_RECORDS = (
    Trajectory, TrackedRun, PicardDiagnostics, TrialReport, RadiusFit, BoundInputs, FailureDemo
)


def _mutable_dataclasses(tree, name):
    """"file:Class" of every class decorated as a dataclass without frozen=True."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            func = deco.func if call else deco
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "dataclass":
                continue
            frozen = call is not None and any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in call.keywords
            )
            if not frozen:
                yield f"{name}:{node.name}"


def test_guard_flags_mutable_dataclasses():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Loose:\n"
        "    x: int\n"
        "@dataclasses.dataclass(order=True)\n"
        "class Ordered:\n"
        "    x: int\n"
        "@dataclass(frozen=False)\n"
        "class Thawed:\n"
        "    x: int\n"
        "@dataclass(frozen=True)\n"
        "class Final:\n"
        "    x: int\n"
        "class Plain:\n"
        "    x = 1\n"
    )
    assert list(_mutable_dataclasses(ast.parse(source), "bad.py")) == [
        "bad.py:Loose", "bad.py:Ordered", "bad.py:Thawed",
    ]


def test_result_records_frozen():
    # a result is final once returned: a counter or a column is a field set when it is built
    assert _package_lines(_mutable_dataclasses) == []
    for record in RESULT_RECORDS:
        assert dataclasses.is_dataclass(record), record.__name__
        assert record.__dataclass_params__.frozen, record.__name__
