"""Tests for reuse classification (Sec. IV-B) and the metadata table."""

from repro.cache.block import BlockMeta, MetadataTable, ReuseClass


def test_new_block_has_no_reuse():
    table = MetadataTable()
    meta = table.get_or_create(1)
    assert meta.reuse is ReuseClass.NONE
    assert meta.llc_hits == 0
    assert not meta.is_loop_block


def test_clean_gets_hit_marks_read_reuse():
    table = MetadataTable()
    meta = table.classify_llc_hit(1, is_getx=False, copy_dirty=False)
    assert meta.reuse is ReuseClass.READ
    assert meta.is_loop_block  # LHybrid LB == read-reused


def test_getx_hit_marks_write_reuse():
    table = MetadataTable()
    meta = table.classify_llc_hit(1, is_getx=True, copy_dirty=False)
    assert meta.reuse is ReuseClass.WRITE
    assert not meta.is_loop_block


def test_hit_on_dirty_copy_marks_write_reuse():
    table = MetadataTable()
    meta = table.classify_llc_hit(1, is_getx=False, copy_dirty=True)
    assert meta.reuse is ReuseClass.WRITE


def test_write_reuse_is_sticky():
    """Once written, a clean re-read does not demote to read-reuse."""
    table = MetadataTable()
    table.classify_llc_hit(1, is_getx=True, copy_dirty=False)
    meta = table.classify_llc_hit(1, is_getx=False, copy_dirty=False)
    assert meta.reuse is ReuseClass.WRITE


def test_hit_counter_accumulates():
    table = MetadataTable()
    for _ in range(3):
        table.classify_llc_hit(9, is_getx=False, copy_dirty=False)
    assert table.get(9).llc_hits == 3


def test_get_does_not_create():
    table = MetadataTable()
    assert table.get(5) is None
    assert len(table) == 0


def test_independent_blocks():
    table = MetadataTable()
    table.classify_llc_hit(1, False, False)
    table.classify_llc_hit(2, True, False)
    assert table.get(1).reuse is ReuseClass.READ
    assert table.get(2).reuse is ReuseClass.WRITE
