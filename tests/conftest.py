from __future__ import annotations

import pytest

from dqeval.datamodel import MISSING, Codes, ColumnSpec, Dataset
from dqeval.harness import write_demo_root
from dqeval.registry import _ratings


def make_dataset(**overrides):
    """Small mixed-type table used across the evaluator tests."""
    columns = (
        ColumnSpec("id", vtype="identifier"),
        ColumnSpec("age", vtype="numerical"),
        ColumnSpec("sex", vtype="categorical"),
        ColumnSpec("label", vtype="categorical", role="target"),
        ColumnSpec("stamp", vtype="datetime", role="timestamp"),
    )
    cells = {
        "id": ("1", "2", "3", "4", "5", "6"),
        "age": (30.0, 40.0, None, 50.0, 60.0, 70.0),
        "sex": ("m", "f", "m", "f", "m", "m"),
        "label": ("a", "a", "b", "a", "b", "a"),
        "stamp": (100.0, 200.0, 300.0, 400.0, 500.0, 600.0),
    }
    kwargs = {"columns": columns, "cells": cells, "dataset_id": "mixed"}
    kwargs.update(overrides)
    return Dataset(**kwargs)


def cells_of(ds, name):
    """A stored column as Python values, MISSING where missing: the form the
    per-cell references give, for comparing with them."""
    col = ds.array(name)
    if isinstance(col, Codes):
        return tuple(MISSING if k < 0 else col.categories[k] for k in col.codes.tolist())
    return tuple(MISSING if v != v else v for v in col.tolist())


def ratings(rows):
    """Items x raters rows of cells (None missing) as the code matrix the
    rater kernels read: one categorical column per rater, through the
    registry's reader."""
    names = [f"r{j}" for j in range(len(rows[0]))]
    columns = tuple(ColumnSpec(name, vtype="categorical") for name in names)
    return _ratings(Dataset(columns=columns, cells=dict(zip(names, zip(*rows)))), names)


@pytest.fixture
def mixed_dataset():
    return make_dataset()


@pytest.fixture(scope="session")
def demo_root(tmp_path_factory):
    """Synthetic PTB-XL-shaped root shared by harness and CLI tests."""
    root = tmp_path_factory.mktemp("demo") / "root"
    write_demo_root(str(root), n_records=300, seed=7)
    return str(root)
