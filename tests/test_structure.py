"""Module boundaries, seeded randomness and single loops, checked on the package's syntax trees.

Keeping the padding and truncation decisions behind public functions of
`spectral` is what lets them be written exactly once.  Drawing only from
explicitly seeded generators is what makes reruns reproduce their digests.
Marching in one loop and building records in one function is what keeps the
record rule and the sample columns from drifting apart between commands.
Calling numpy.fft from `spectral` alone keeps the half layout and the Nyquist
split written once.  Staging, writing and promoting run directories in one
driver is what keeps every command's artifacts, manifest and exit code alike.
"""

import ast
import pathlib

import kdvbbm

PACKAGE = pathlib.Path(kdvbbm.__file__).resolve().parent


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "kdvbbm":
            continue
        source = "." * node.level + module
        if _is_private(module.split(".")[-1]):
            yield f"{path.name}:{node.lineno} imports from private module {source}"
        for alias in node.names:
            if _is_private(alias.name):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {source}"


def test_no_private_names_imported_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [line for path in modules for line in _private_imports(path)]
    assert offenders == []


#: numpy.random names that create or seed a generator; the rest read or move global state.
SEEDED_RANDOM = {
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}


def _global_rng_uses(source, name):
    tree = ast.parse(source, filename=name)
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
    assert len(list(_global_rng_uses(source, "bad.py"))) == 3


def test_randomness_is_explicitly_seeded():
    modules = sorted(PACKAGE.glob("*.py"))
    offenders = [
        line for path in modules for line in _global_rng_uses(path.read_text(encoding="utf-8"), path.name)
    ]
    assert offenders == []


def _call_sites(source, name, callee):
    """"file:function" of every call of callee, named by its innermost enclosing function."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee:
                sites.append(f"{name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source, filename=name), "<module>")
    return sites


def _package_call_sites(callee):
    return [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        for site in _call_sites(path.read_text(encoding="utf-8"), path.name, callee)
    ]


def test_guard_flags_copied_loops():
    source = (
        "def run(eta0):\n"
        "    for t, s in iterate_ifrk4(eta0):\n"
        "        rec = kb.SampleRecord(t, s)\n"
        "    def inner():\n"
        "        return SampleRecord(0.0, None)\n"
        "    return dynamics.iterate_ifrk4(eta0)\n"
    )
    assert _call_sites(source, "bad.py", "SampleRecord") == ["bad.py:run", "bad.py:inner"]
    assert _call_sites(source, "bad.py", "iterate_ifrk4") == ["bad.py:run", "bad.py:run"]


def test_one_record_constructor():
    # every SampleRecord, marched or solved, is built by one function
    sites = _package_call_sites("SampleRecord")
    assert len(sites) == 1, sites


def test_one_marching_loop():
    # the IFRK4 state stream is consumed by evolve_ifrk4 alone; others hook into it
    assert _package_call_sites("iterate_ifrk4") == ["dynamics.py:evolve_ifrk4"]


def test_one_run_driver():
    # runners return their artifacts and checks; only the driver stages and writes them
    for callee in ("RunDirectory", "_manifest", "_write_csv"):
        assert _package_call_sites(callee) == ["cli.py:_run"], callee


def test_one_json_writer():
    # every JSON file goes through one strict writer, so none carries NaN or Infinity
    assert _package_call_sites("dump") == ["cli.py:_write_json"]


def _fft_uses(source, name):
    """Lines of source that reach numpy.fft, by attribute, import or import-from."""
    for node in ast.walk(ast.parse(source, filename=name)):
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
    assert len(list(_fft_uses(source, "bad.py"))) == 5


def test_fft_only_in_spectral():
    # spectral holds the one layout and Nyquist convention; every transform goes through it
    offenders = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "spectral.py"
        for line in _fft_uses(path.read_text(encoding="utf-8"), path.name)
    ]
    assert offenders == []
    assert list(_fft_uses((PACKAGE / "spectral.py").read_text(encoding="utf-8"), "spectral.py"))
