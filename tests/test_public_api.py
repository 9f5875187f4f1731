"""The package's public surface: each library module's __all__, re-exported by diffnms."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import diffnms

LIBRARY_MODULES = [
    importlib.import_module(f"diffnms.{name}")
    for name in ("boxes", "geometry", "gradients", "harness", "io_jsonl", "io_kitti", "nms", "ranking", "synthetic")
]


def _exporters(name: str) -> list:
    """The library modules whose __all__ lists name."""
    return [module for module in LIBRARY_MODULES if name in module.__all__]


@pytest.mark.parametrize("name", diffnms.__all__)
def test_every_exported_name_resolves(name):
    (module,) = _exporters(name)
    assert getattr(diffnms, name) is getattr(module, name)


@pytest.mark.parametrize("name", diffnms.__all__)
def test_every_exported_name_is_exported_by_its_module(name):
    assert len(_exporters(name)) == 1


def test_all_is_the_union_of_the_module_lists():
    exported = Counter(name for module in LIBRARY_MODULES for name in module.__all__)
    # A name in two modules' __all__ would be shadowed silently by the star imports.
    assert [name for name, count in exported.items() if count > 1] == []
    assert sorted(exported) == diffnms.__all__


# SCORE_MODES and scene_from_dict stay in their modules for the package's own
# use; scene_to_dict is the record writer in tests/oracles.py. A dotted name is
# a member removed from an exported class; the scalar record quantities live on
# in tests/oracles.py.
REMOVED_NAMES = [
    "classical_soft_nms",
    "prune_matrix",
    "solve_unit_lower",
    "SCORE_MODES",
    "scene_from_dict",
    "scene_to_dict",
    "Cuboid3D.bev_aabb",
    "Rect2D.width",
    "Rect2D.area",
    "Cuboid3D.volume",
    "Cuboid3D.footprint_area",
    "Cuboid3D.vertical_extent",
    "Rect2D.height",
    "GroundTruth.height",
]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_helpers_are_gone(name):
    owner, _, attr = name.rpartition(".")
    if owner:
        assert not hasattr(getattr(diffnms, owner), attr)
        return
    assert name not in diffnms.__all__
    with pytest.raises(ImportError):
        exec(f"from diffnms import {name}", {})


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_nodes():
    """(file name, node) of every AST node in bench/*.py."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            yield path.name, node


def _bench_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every ``from diffnms... import name`` in bench/*.py."""
    found = []
    for file, node in _bench_nodes():
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "diffnms":
            found += [(file, node.module, alias.name) for alias in node.names]
    return found


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")
def test_every_name_the_benchmark_imports_resolves():
    # A name cut from the surface would otherwise fail only when the benchmark runs.
    imports = _bench_imports()
    assert imports
    missing = []
    for file, module, name in imports:
        try:
            exec(f"from {module} import {name}", {})
        except ImportError:
            missing.append(f"{file}: from {module} import {name}")
    assert missing == []


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")
def test_the_benchmark_reads_no_removed_member():
    # A removed member read through a record would otherwise fail only in the
    # benchmark's traced run. Any attribute of that name counts, whatever its owner.
    members = {name.rpartition(".")[2] for name in REMOVED_NAMES if "." in name}
    reads = [
        f"{file}:{node.lineno}: .{node.attr}"
        for file, node in _bench_nodes()
        if isinstance(node, ast.Attribute) and node.attr in members
    ]
    assert reads == []
