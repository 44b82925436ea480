"""Metadata store transactions."""

import pytest

from repro.metadata import MetadataStore, NamespaceError
from repro.storage import BLOCK_SIZE


@pytest.fixture
def store():
    s = MetadataStore()
    s.allocator.add_device("d1", 1000)
    return s


def test_create_allocates_blocks(store):
    ino = store.create_file("/f", size=3 * BLOCK_SIZE, now=1.0)
    assert ino.attrs.size == 3 * BLOCK_SIZE
    assert ino.extents.block_count == 3


def test_create_zero_size(store):
    ino = store.create_file("/f", size=0)
    assert ino.extents.block_count == 0


def test_create_on_an_existing_path_changes_nothing(store):
    first = store.create_file("/f", size=BLOCK_SIZE)
    free = store.allocator.total_free_blocks
    with pytest.raises(NamespaceError):
        store.create_file("/f", size=5 * BLOCK_SIZE)
    assert store.file_count == 1
    assert store.allocator.total_free_blocks == free
    assert store.lookup("/f") is first
    # No file id was drawn: the next create gets the one after the first.
    assert store.create_file("/g").file_id == first.file_id + 1


def test_lookup_roundtrip(store):
    ino = store.create_file("/a/b", size=BLOCK_SIZE)
    assert store.lookup("/a/b").file_id == ino.file_id


def test_inode_by_id(store):
    ino = store.create_file("/f")
    assert store.inode(ino.file_id) is ino
    with pytest.raises(NamespaceError):
        store.inode(999)


def test_ensure_size_grows(store):
    ino = store.create_file("/f", size=BLOCK_SIZE, now=0.0)
    v0 = ino.attrs.version
    store.ensure_size(ino.file_id, 5 * BLOCK_SIZE, now=2.0)
    assert ino.extents.block_count == 5
    assert ino.attrs.size == 5 * BLOCK_SIZE
    assert ino.attrs.version > v0


def test_ensure_size_no_shrink(store):
    ino = store.create_file("/f", size=4 * BLOCK_SIZE, now=0.0)
    store.ensure_size(ino.file_id, BLOCK_SIZE, now=1.0)
    assert ino.attrs.size == 4 * BLOCK_SIZE  # size preserved
    assert ino.extents.block_count == 4


def test_set_attrs_truncate(store):
    ino = store.create_file("/f", size=4 * BLOCK_SIZE, now=0.0)
    store.set_attrs(ino.file_id, now=1.0, size=BLOCK_SIZE)
    assert ino.attrs.size == BLOCK_SIZE


def test_bare_setattr_bumps_version(store):
    ino = store.create_file("/f", now=0.0)
    v0 = ino.attrs.version
    store.set_attrs(ino.file_id, now=1.0)
    assert ino.attrs.version == v0 + 1


def test_set_mode(store):
    ino = store.create_file("/f")
    store.set_attrs(ino.file_id, now=1.0, mode=0o600)
    assert ino.attrs.mode == 0o600


def test_unlink_frees_space(store):
    before = store.allocator.total_free_blocks
    store.create_file("/f", size=10 * BLOCK_SIZE)
    store.unlink("/f")
    assert store.allocator.total_free_blocks == before
    assert not store.exists("/f")
    assert store.file_count == 0


def test_op_counters(store):
    store.create_file("/f")
    store.lookup("/f")
    assert store.ops == 2
    assert store.meta_writes >= 1
    assert store.meta_reads >= 1


def test_needs_allocation_helper(store):
    ino = store.create_file("/f", size=BLOCK_SIZE)
    assert ino.needs_allocation(3 * BLOCK_SIZE) == 2
    assert ino.needs_allocation(BLOCK_SIZE) == 0
