"""The package's public surface: each library module's __all__, re-exported by diffnms."""

import importlib
from collections import Counter

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


# SCORE_MODES, scene_from_dict and scene_to_dict stay in their modules for the
# package's own use. A dotted name is a method removed from an exported class.
@pytest.mark.parametrize(
    "name",
    [
        "classical_soft_nms",
        "prune_matrix",
        "solve_unit_lower",
        "SCORE_MODES",
        "scene_from_dict",
        "scene_to_dict",
        "Cuboid3D.bev_aabb",
    ],
)
def test_removed_helpers_are_gone(name):
    owner, _, attr = name.rpartition(".")
    if owner:
        assert not hasattr(getattr(diffnms, owner), attr)
        return
    assert name not in diffnms.__all__
    with pytest.raises(ImportError):
        exec(f"from diffnms import {name}", {})
