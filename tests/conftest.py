"""Fixtures shared across test modules."""
import pytest

from nalab.experiments import _PIPELINES, CANONICAL_SEED


@pytest.fixture(scope="session")
def tree_weak11_reports():
    """The `tree-weak11` pipeline's reports; its 300 tree maximal functions
    are the slowest pipeline, so the suite runs it once."""
    return _PIPELINES["tree-weak11"](CANONICAL_SEED)
