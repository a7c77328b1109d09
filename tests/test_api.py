"""The public API: its names, one input contract for every callable, and the modules' imports."""

import ast
import builtins
import dataclasses
import inspect
import math
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import errors, geometry, ground_state, model, oracle, topology

MODULES = (model, ground_state, geometry, topology, oracle)


def _error_classes():
    return {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ArtifactError)
    }


def test_package_exports_the_module_exports():
    union = set().union(*(module.__all__ for module in MODULES)) | _error_classes()
    assert len(artifact.__all__) == len(set(artifact.__all__))
    assert set(artifact.__all__) == union
    # growth of the public API is a deliberate edit of this count
    assert len(artifact.__all__) == 34
    # growth of the error classes is a deliberate edit of this count
    assert len(errors.__all__) == 6


def test_every_error_class_is_raised():
    # an error class that no longer has a raise site has outlived its caller
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.add(ast.unparse(node.exc.func).rsplit(".", 1)[-1])
    assert set(errors.__all__) - {"ArtifactError"} <= raised


def _raised_in_docstrings():
    # the class names listed under "Raises" in the docstrings of the public
    # names and of the public attributes of the public classes
    docs = []
    for name in artifact.__all__:
        obj = getattr(artifact, name)
        docs.append(obj.__doc__)
        if isinstance(obj, type):
            docs += [
                getattr(obj, attr).__doc__ for attr in vars(obj) if not attr.startswith("_")
            ]
    named = set()
    for doc in filter(None, docs):
        lines = inspect.cleandoc(doc).splitlines() + [""]
        for i, line in enumerate(lines[:-1]):
            if line != "Raises" or set(lines[i + 1]) != {"-"}:
                continue
            for entry, under in zip(lines[i + 2:], lines[i + 3:]):
                if set(under) == {"-"}:
                    break
                if entry and not entry[0].isspace():
                    named.update(part.strip() for part in entry.split(","))
    return named


def test_docstrings_raise_only_the_error_classes():
    # a folded or renamed class cannot survive in a docstring, and every
    # class has a documented raise site
    named = _raised_in_docstrings()
    unknown = {
        name
        for name in named - set(errors.__all__)
        if not (
            isinstance(getattr(builtins, name, None), type)
            and issubclass(getattr(builtins, name), BaseException)
        )
    }
    assert not unknown
    assert set(errors.__all__) - {"ArtifactError"} <= named


def test_no_library_module_imports_scipy():
    # the library runs on numpy alone, exact diagonalization included: no
    # module imports scipy, at module level or inside a function
    imports, modules = [], 0
    for path in Path(errors.__file__).parent.glob("*.py"):
        modules += 1
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                imports.append(path.name)
    assert modules > 1
    assert imports == []


def test_ground_states_come_only_from_their_constructors():
    # one way in: every GroundState is built from its point by a constructor,
    # so no other code may instantiate the class, by name or as cls
    callers = []
    for path in Path(errors.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        scope = {}
        for node in ast.walk(tree):
            name = node.name if isinstance(node, ast.FunctionDef) else scope.get(node, "<module>")
            for child in ast.iter_child_nodes(node):
                scope[child] = name
            if isinstance(node, ast.Call):
                if ast.unparse(node.func).rsplit(".", 1)[-1] in ("GroundState", "cls"):
                    callers.append(scope[node])
    assert sorted(callers) == ["build_ground_state", "isotropic_ground_state"]


def test_every_public_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(artifact, name) is getattr(module, name), name
    for name in _error_classes():
        assert getattr(artifact, name) is getattr(errors, name), name


def test_public_names_are_listed_and_importable():
    assert set(artifact.__all__) <= set(dir(artifact))
    code = "from artifact import qgt_matrix_elements; print(qgt_matrix_elements.__name__)"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["qgt_matrix_elements"]


def test_ring_size_has_no_default():
    # the ring size is a required argument; only the plaquette-grid route
    # keeps its grid defaults
    defaulted = set()
    for name in set(artifact.__all__) - _error_classes():
        obj = getattr(artifact, name)
        if not callable(obj):
            continue
        n_sites = inspect.signature(obj).parameters.get("n_sites")
        if n_sites is not None and n_sites.default is not inspect.Parameter.empty:
            defaulted.add(name)
    assert defaulted == {"chern_discrete"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        artifact.no_such_name
    assert not hasattr(artifact, "no_such_name")


# One input contract for the whole public API: every parameter of every public
# callable is of a known kind, and each bad value of its kind raises that
# kind's error, never a result: BadSize for a ring size, ValueError otherwise.
_NOT_ROUTES = {
    "GroundState", "GeometricTensor", "CurvatureDensity", "ChernResult", "PhasePoint",
    "SpinSpectrum", "SpectralTerm", "PhaseLabel",
}
_COUPLING = [
    "0.5", None, 10**400, math.nan, math.inf, -math.inf, -1.0, 1e151,
    np.array([0.5]), np.array([0.5, 0.6]),
]
_BAD = {
    "coupling": _COUPLING,
    "phi": [*_COUPLING, math.pi],
    "momentum": ["0.5", None, 10**400, math.nan, math.inf, -math.inf, 1j, [0.5, 1j]],
    # sizes outside every route's bounds: one inside them but large, such as
    # 2**40, would pass the check and then be allocated
    "ring size": [None, 6.5, "6", 1, 3, -2, 10**400, 2**53 + 2],
    "grid": [256, None, (16,), (16, 16, 16), "16x16", (15, 16), (16.0, 16)],
    "tolerance": ["1e-3", None, math.nan, math.inf, 0.0, -1.0],
    # composite inputs (a point, a loop of points, a ground state), checked
    # where each route first reads them
    "state": [None, "0.5", 0.5, (0.3, 0.5, 1.5)],
}
_KINDS = {
    "gamma": "coupling", "lam": "coupling", "lambda_lo": "coupling",
    "lambda_hi": "coupling", "phi": "phi", "alpha": "momentum", "n_sites": "ring size",
    "grid": "grid", "tol": "tolerance", "params": "state", "loop": "state",
    "a": "state", "b": "state",
}
# a valid value per required parameter; defaulted ones keep their defaults
_P = artifact.ModelParams(0.3, 0.5, 1.5)
_VALID = {
    "gamma": 0.5, "lam": 0.5, "lambda_lo": 0.5, "lambda_hi": 1.5, "phi": 0.3,
    "alpha": 1.1, "n_sites": 6, "tol": 0.1, "params": _P, "loop": [_P] * 3,
    "a": artifact.build_ground_state(_P, 6), "b": artifact.build_ground_state(_P, 6),
}


def _routes():
    for name in artifact.__all__:
        obj = getattr(artifact, name)
        if name not in _NOT_ROUTES | _error_classes():
            yield name, obj, inspect.signature(obj).parameters


def _required(params, /, **override):
    args = {p: _VALID[p] for p, spec in params.items() if spec.default is inspect.Parameter.empty}
    return {**args, **override}


def test_every_parameter_has_a_kind():
    unknown = {
        f"{name}({param})"
        for name, _, params in _routes()
        for param in params
        if param not in _KINDS
    }
    assert not unknown


def _bad_calls():
    for name, route, params in _routes():
        for param in params:
            # an unknown parameter fails test_every_parameter_has_a_kind, not collection
            kind = _KINDS.get(param, "state")
            error = errors.BadSize if kind == "ring size" else ValueError
            for value in _BAD[kind]:
                yield pytest.param(
                    route, params, param, value, error, id=f"{name}-{param}={value!r:.16}"
                )


@pytest.mark.parametrize("route, params, param, value, error", _bad_calls())
def test_bad_input_raises(route, params, param, value, error):
    with pytest.raises(error):
        route(**_required(params, **{param: value}))


@pytest.mark.parametrize(
    "name, route, params",
    [pytest.param(*r, id=r[0]) for r in _routes() if "n_sites" in r[2]],
)
def test_every_stored_ring_size_is_a_python_int(name, route, params):
    default = params["n_sites"].default
    n = np.int64(_VALID["n_sites"] if default is inspect.Parameter.empty else default)
    result = route(**_required(params, n_sites=n))
    assert type(getattr(result, "n_sites", 0)) is int, name


# every real number math.isfinite accepts is computed on as its float
_NUMBERS = {
    "Decimal": lambda v: Decimal(repr(v)),
    "Fraction": Fraction,
    "float32": np.float32,
    "float64": np.float64,
}


def _same_bits(a, b):
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, (np.ndarray, np.generic, float, complex)):
        # a numpy float64 scalar and a float of the same value: the same bits
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


# the kinds of one real number each: every route takes them as their floats
_NUMERIC_KINDS = ("coupling", "phi", "tolerance", "momentum")


def _number_calls():
    for name, route, params in _routes():
        numeric = [p for p in params if _KINDS.get(p) in _NUMERIC_KINDS]
        for label, make in _NUMBERS.items() if numeric else ():
            yield pytest.param(route, params, numeric, make, id=f"{name}-{label}")


def _assert_computes_as_its_float(route, params, numeric, make):
    """Each number in ``numeric`` given as ``make`` of its valid value gives the float's bits."""
    for param in numeric:
        x = make(_VALID[param])
        result = route(**_required(params, **{param: x}))
        assert _same_bits(result, route(**_required(params, **{param: float(x)}))), param


@pytest.mark.parametrize("route, params, numeric, make", _number_calls())
def test_every_route_computes_a_number_as_its_float(route, params, numeric, make):
    _assert_computes_as_its_float(route, params, numeric, make)


# momenta numpy holds as bools, ints or narrow floats: each is computed on as its float too
@pytest.mark.parametrize("make", [bool, int, np.float16], ids=["bool", "int", "float16"])
@pytest.mark.parametrize(
    "route, params",
    [pytest.param(*r[1:], id=r[0]) for r in _routes() if "alpha" in r[2]],
)
def test_every_momentum_computes_as_its_float(route, params, make):
    _assert_computes_as_its_float(route, params, ["alpha"], make)


def test_gap_of_fractions_has_the_bits_of_their_floats():
    # neither Fraction is a float: the squares and comparisons are the floats'
    a, b = Fraction(634, 1407), Fraction(387, 616)
    assert _same_bits(artifact.gap(a, b), artifact.gap(float(a), float(b)))
    assert artifact.gap(a, b) == 0.3201345016079923


@pytest.mark.parametrize("make", _NUMBERS.values(), ids=_NUMBERS)
def test_stored_couplings_are_python_floats(make):
    p = artifact.ModelParams(make(0.3), make(0.5), make(1.5))
    assert [type(x) for x in (p.phi, p.gamma, p.lam)] == [float] * 3
    assert type(artifact.classify_phase(make(0.5)).lam) is float
    density = artifact.berry_curvature_density(make(0.5), make(1.5))
    assert (type(density.gamma), type(density.lam)) == (float, float)


def test_grid_sides_of_numpy_integers_give_python_numbers():
    result = artifact.chern_discrete(0.5, np.array([32, 32]), 512)
    assert type(result.node_count) is int
    assert result.node_count == 32 * 32 + 2
    assert type(result.value) is float
    assert result == artifact.chern_discrete(0.5, (32, 32), 512)


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.name}: {bound}")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(Path(errors.__file__).parent.glob("*.py"))
    unused = [u for path in paths if path.name != "__init__.py" for u in _unused_imports(path)]
    assert len(paths) > 1
    assert unused == []


def test_every_definition_is_public_or_named():
    # a module-level function or class that no __all__ lists and no code in
    # the package names is dead; the console script names its entry point
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"].values()
    paths = Path(errors.__file__).parent.glob("*.py")
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    named = set(artifact.__all__) | {target.rsplit(":", 1)[1] for target in scripts}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defined = [
        (stem, node.name)
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert len(trees) > 1
    assert [f"{stem}.{name}" for stem, name in defined if name not in named] == []


def test_test_extra_names_every_package_the_tests_import():
    # a package a test module imports, other than the standard library and
    # the repository's own modules, is a dependency or in the `test` extra
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    specs = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    declared = {re.match(r"[\w.-]+", spec).group() for spec in specs}
    paths = [*root.glob("tests/*.py"), *root.glob("bench/tests/*.py")]
    own = {"artifact", "pauli", "tracer", "workloads", *(path.stem for path in paths)}
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert len(paths) > 1 and "pytest" in imported
    assert imported - set(sys.stdlib_module_names) - own - declared == set()
