"""The package namespace: what `from orthogeo import *` brings in."""

from types import ModuleType

import pytest

import orthogeo

REMOVED = [
    "ChainNotMaximal",
    "FlowNetwork",
    "FlowResult",
    "NotConcave",
    "NotOrthogonal",
    "birkhoff_projection",
    "concave_subarch",
    "convex_hull",
    "cross",
    "distributive_frame",
    "distributive_sublattice",
    "geodesic_modular_lattice",
    "is_maximal_chain",
    "modular_lattice_catalog",
    "owen_path",
    "path_length",
    "simplex_distance",
    "upper_right_chain",
    "v_value",
]

REMOVED_GRADED_POSET_METHODS = ["covers_up", "interval_ids", "is_chain", "join_set", "meet_set"]


def test_all_lists_resolvable_names_and_no_modules():
    assert len(set(orthogeo.__all__)) == len(orthogeo.__all__)
    for name in orthogeo.__all__:
        assert hasattr(orthogeo, name), name
        assert not isinstance(getattr(orthogeo, name), ModuleType), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in orthogeo.__all__
    assert not hasattr(orthogeo, name)


@pytest.mark.parametrize("name", REMOVED_GRADED_POSET_METHODS)
def test_removed_graded_poset_method_is_gone(name):
    assert not hasattr(orthogeo.GradedPoset, name)


def test_star_import_brings_no_submodule():
    namespace = {}
    exec("from orthogeo import *", namespace)
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]
    assert {"geodesic", "geodesic_median", "Pip", "SqrtSum"} <= namespace.keys()
    # the submodules stay reachable as attributes of the package
    assert orthogeo.engine.geodesic is orthogeo.geodesic
    assert callable(orthogeo.radicals.squarefree_split)
