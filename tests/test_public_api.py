"""The package namespace re-exports exactly its modules' public names."""

import pytest

import trottersim
from trottersim import channels, dilation, liouvillian, mitigation, tomography, trotter

MODULES = (channels, dilation, liouvillian, mitigation, tomography, trotter)


def test_package_names_are_unique():
    assert len(trottersim.__all__) == len(set(trottersim.__all__))


def test_package_all_concatenates_the_module_lists():
    assert trottersim.__all__ == [name for module in MODULES for name in module.__all__]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_module_object(module):
    for name in module.__all__:
        assert getattr(trottersim, name) is getattr(module, name), name
