"""Run the doctests embedded in public docstrings — the examples users
read must actually work."""

import doctest

import pytest

import repro.common.clock
import repro.common.keys
import repro.common.rng
import repro.common.rows
import repro.core.database
import repro.locking.modes
import repro.query.aggregates
import repro.storage.btree
import repro.storage.bufferpool
import repro.storage.heap
import repro.storage.pages
import repro.wal.records
import repro.wal.segments

MODULES = [
    repro.common.clock,
    repro.common.keys,
    repro.common.rng,
    repro.common.rows,
    repro.core.database,
    repro.locking.modes,
    repro.query.aggregates,
    repro.storage.btree,
    repro.storage.bufferpool,
    repro.storage.heap,
    repro.storage.pages,
    repro.wal.records,
    repro.wal.segments,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__}: no doctests found"
