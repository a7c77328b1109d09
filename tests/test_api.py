"""The package's public names are exactly its modules' public names."""

import ast
import builtins
import inspect
import subprocess
import sys
from pathlib import Path

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
    assert len(artifact.__all__) == 35
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
