"""The exception hierarchy is catchable at one API boundary."""

import pytest

from repro import errors


def test_hierarchy():
    for exc_type in (
        errors.GraphFormatError,
        errors.GraphConstructionError,
        errors.EmbeddingSizeError,
        errors.StorageError,
        errors.DiskFullError,
        errors.PlanError,
        errors.UnknownDatasetError,
    ):
        assert issubclass(exc_type, errors.KaleidoError)
    for exc_type in (
        errors.TransientStorageError,
        errors.CorruptPartError,
        errors.DiskFullError,
    ):
        assert issubclass(exc_type, errors.StorageError)


def test_library_raises_kaleido_errors_only():
    """A few representative failures are all caught by KaleidoError."""
    from repro.graph import GraphBuilder, load

    with pytest.raises(errors.KaleidoError):
        GraphBuilder().add_edge(1, 1)
    with pytest.raises(errors.KaleidoError):
        load("missing-dataset")
    from repro.core import Pattern, eigen_hash

    with pytest.raises(errors.KaleidoError):
        eigen_hash(Pattern((0,) * 10, 0))
