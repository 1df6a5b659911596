"""The package's public names, and the imports of its modules, tests and
scripts."""

import ast
from pathlib import Path

import pytest

import isokernel

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isokernel"

# ``__all__``, which changes only on purpose, and in this order
PUBLIC = [
    "Dataset",
    "DualModel",
    "FeatureMatchKernel",
    "Gaussian",
    "IKOGDModel",
    "LabeledPoint",
    "Laplacian",
    "Mapper",
    "Metrics",
    "NOGDModel",
    "NystromMap",
    "ProtocolConfig",
    "SparseVector",
    "cv_select_psi",
    "fit_nystrom",
    "kernel",
    "kfold",
    "load_libsvm",
    "make_two_gaussians",
    "naive_dot",
    "parse_libsvm_line",
    "predict_label",
    "run_batch",
    "run_online",
    "save_libsvm",
    "shuffle",
    "split_head",
    "sq_distance",
    "sweep",
    "sym_eigen",
]


def imported_names(tree):
    """Each name that an import statement of ``tree`` binds, with the line
    of its statement."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                yield alias.asname or alias.name.split(".")[0], node.lineno


def checked_modules():
    """The modules that may import only what they read: the package's own
    but ``__init__.py``, which imports to re-export names, and the tests'
    and the scripts'."""
    modules = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    for folder in ("tests", "scripts"):
        modules += sorted((ROOT / folder).glob("*.py"))
    return modules


def test_public_api_is_pinned():
    assert isokernel.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(isokernel, name, None) is not None, name
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(name for name, _ in imported_names(tree)) == sorted(PUBLIC)


@pytest.mark.parametrize("path", checked_modules(),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [f"{name} (line {line})"
              for name, line in imported_names(tree) if name not in read]
    assert unused == []
