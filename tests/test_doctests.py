"""Run the usage examples embedded in the library docstrings, and check the
public namespace."""

import doctest

import pytest

import wedgematch
import wedgematch.bijections
import wedgematch.enumeration
import wedgematch.matching
import wedgematch.paths


@pytest.mark.parametrize(
    "module",
    [
        wedgematch.matching,
        wedgematch.paths,
        wedgematch.bijections,
        wedgematch.enumeration,
    ],
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_public_names_resolve():
    missing = [name for name in wedgematch.__all__ if not hasattr(wedgematch, name)]
    assert missing == []
