"""``IOMetrics`` bookkeeping: snapshot/diff/reset/merge and the
``sstables_opened`` counter."""

from __future__ import annotations

import dataclasses

import pytest

from repro import TraSS, TraSSConfig
from repro.kvstore.metrics import IOMetrics
from repro.kvstore.sstable import SSTable
from tests.conftest import BEIJING


def test_snapshot_diff_reset_merge():
    names = [f.name for f in dataclasses.fields(IOMetrics)]
    m = IOMetrics()
    for i, name in enumerate(names):
        setattr(m, name, i)
    snap = m.snapshot()
    assert list(snap) == names
    assert snap == {name: i for i, name in enumerate(names)}
    m.rows_scanned += 5
    delta = m.diff(snap)
    assert list(delta) == names
    assert delta["rows_scanned"] == 5
    assert sum(delta.values()) == 5
    assert m.diff({})["rows_scanned"] == snap["rows_scanned"] + 5
    other = IOMetrics(rows_scanned=2, puts=3)
    m.merge_from(other)
    assert m.rows_scanned == snap["rows_scanned"] + 7
    assert m.puts == snap["puts"] + 3
    m.reset()
    assert set(m.snapshot().values()) == {0}


@pytest.fixture(scope="module")
def sst_dir(tmp_path_factory, small_dataset):
    config = TraSSConfig(
        bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
    )
    directory = str(tmp_path_factory.mktemp("sst") / "store")
    TraSS.build(small_dataset, config).save(directory)
    return directory


def _count_sstable_scans(monkeypatch):
    calls = []
    scan = SSTable.scan

    def counted(self, *args, **kwargs):
        calls.append(self)
        return scan(self, *args, **kwargs)

    monkeypatch.setattr(SSTable, "scan", counted)
    return calls


@pytest.mark.parametrize("cache_mb", [0, 16])
def test_sstables_opened_counts_run_scans(
    sst_dir, small_dataset, monkeypatch, cache_mb
):
    engine = TraSS.load(sst_dir)
    engine.configure_execution(cache_mb=cache_mb)
    assert any(
        region.store.sstables for region in engine.store.table.regions
    ), "the loaded store should read from SSTables"
    calls = _count_sstable_scans(monkeypatch)
    before = engine.metrics.snapshot()
    for query in small_dataset[:5]:
        engine.threshold_search(query, 0.01)
        engine.topk_search(query, 3)
    opened = engine.metrics.diff(before)["sstables_opened"]
    assert opened > 0
    assert opened == len(calls)
    if cache_mb:
        # A warm repeat is served by the block cache: no run is read.
        calls.clear()
        before = engine.metrics.snapshot()
        engine.threshold_search(small_dataset[0], 0.01)
        assert engine.metrics.diff(before)["sstables_opened"] == 0
        assert not calls
