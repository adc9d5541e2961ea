import csv
import io

import numpy as np
import pytest

from vigap.core import l1_regularizer, tikhonov
from vigap.problems import example_5_1

XSTAR = np.array([0.0, -0.75, -0.25])  # common regularized solution for phi = l1
X0 = np.array([1.0, -2.0, 1.0])        # default benchmark start point


@pytest.fixture(scope="session")
def ba_problem():
    """Best-approximation instance (shared; it is immutable)."""
    return example_5_1()


@pytest.fixture(scope="session")
def l2():
    return tikhonov()


@pytest.fixture(scope="session")
def l1():
    return l1_regularizer()


def golden_changes(text: str, golden) -> list:
    """Each cell where the CSV `text` differs from the file `golden`, as
    "row key, column: old -> new". A row's key is its cells up to `epsilon`;
    a row present on one side only is listed once with column "(row)"."""
    old, new = (list(csv.reader(io.StringIO(t))) for t in (golden.read_text(), text))
    if old[:1] != new[:1]:
        return [f"header: {old[:1]} -> {new[:1]}"]
    header = old[0]
    n_key = header.index("epsilon") + 1
    old_rows, new_rows = ({",".join(r[:n_key]): r for r in rows[1:]} for rows in (old, new))
    changes = []
    for key in list(old_rows) + [k for k in new_rows if k not in old_rows]:
        a, b = old_rows.get(key), new_rows.get(key)
        if a is None or b is None:
            changes.append(f"{key}, (row): {a} -> {b}")
            continue
        changes += [f"{key}, {col}: {u} -> {v}"
                    for col, u, v in zip(header, a, b) if u != v]
    return changes


def assert_matches_golden(text: str, golden):
    """Fail unless `text` equals the file `golden` byte for byte, listing
    each changed cell (`golden_changes`) when it does not."""
    if text != golden.read_text():
        changes = golden_changes(text, golden) or ["(no cell changed; the bytes differ)"]
        pytest.fail(f"{golden.name} differs:\n" + "\n".join(changes), pytrace=False)
