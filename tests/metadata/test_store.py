"""Metadata store transactions."""

import pytest

from repro.metadata import MetadataStore, NamespaceError
from repro.metadata.store import ClaimError, MutationClaim
from repro.storage import BLOCK_SIZE

#: The store's unit tests mint their own claim; in ``src/`` only the
#: cache barrier does (``tests/server/test_barrier_claims.py``).
CLAIM = MutationClaim()


@pytest.fixture
def store():
    s = MetadataStore()
    s.allocator.add_device("d1", 1000)
    return s


def test_create_allocates_blocks(store):
    ino = store.create_file("/f", size=3 * BLOCK_SIZE, now=1.0, claim=CLAIM)
    assert ino.attrs.size == 3 * BLOCK_SIZE
    assert ino.extents.block_count == 3


def test_create_zero_size(store):
    ino = store.create_file("/f", size=0, claim=CLAIM)
    assert ino.extents.block_count == 0


def test_create_on_an_existing_path_changes_nothing(store):
    first = store.create_file("/f", size=BLOCK_SIZE, claim=CLAIM)
    free = store.allocator.total_free_blocks
    with pytest.raises(NamespaceError):
        store.create_file("/f", size=5 * BLOCK_SIZE, claim=CLAIM)
    assert store.file_count == 1
    assert store.allocator.total_free_blocks == free
    assert store.lookup("/f") is first
    # No file id was drawn: the next create gets the one after the first.
    assert store.create_file("/g", claim=CLAIM).file_id == first.file_id + 1


def test_lookup_roundtrip(store):
    ino = store.create_file("/a/b", size=BLOCK_SIZE, claim=CLAIM)
    assert store.lookup("/a/b").file_id == ino.file_id


def test_inode_by_id(store):
    ino = store.create_file("/f", claim=CLAIM)
    assert store.inode(ino.file_id) is ino
    with pytest.raises(NamespaceError):
        store.inode(999)


def test_ensure_size_grows(store):
    ino = store.create_file("/f", size=BLOCK_SIZE, now=0.0, claim=CLAIM)
    v0 = ino.attrs.version
    store.ensure_size(ino.file_id, 5 * BLOCK_SIZE, now=2.0, claim=CLAIM)
    assert ino.extents.block_count == 5
    assert ino.attrs.size == 5 * BLOCK_SIZE
    assert ino.attrs.version > v0


def test_ensure_size_no_shrink(store):
    ino = store.create_file("/f", size=4 * BLOCK_SIZE, now=0.0, claim=CLAIM)
    store.ensure_size(ino.file_id, BLOCK_SIZE, now=1.0, claim=CLAIM)
    assert ino.attrs.size == 4 * BLOCK_SIZE  # size preserved
    assert ino.extents.block_count == 4


def test_set_attrs_truncate(store):
    ino = store.create_file("/f", size=4 * BLOCK_SIZE, now=0.0, claim=CLAIM)
    store.set_attrs(ino.file_id, now=1.0, size=BLOCK_SIZE, claim=CLAIM)
    assert ino.attrs.size == BLOCK_SIZE


def test_bare_setattr_bumps_version(store):
    ino = store.create_file("/f", now=0.0, claim=CLAIM)
    v0 = ino.attrs.version
    store.set_attrs(ino.file_id, now=1.0, claim=CLAIM)
    assert ino.attrs.version == v0 + 1


def test_set_mode(store):
    ino = store.create_file("/f", claim=CLAIM)
    store.set_attrs(ino.file_id, now=1.0, mode=0o600, claim=CLAIM)
    assert ino.attrs.mode == 0o600


def test_unlink_frees_space(store):
    before = store.allocator.total_free_blocks
    store.create_file("/f", size=10 * BLOCK_SIZE, claim=CLAIM)
    store.unlink("/f", claim=CLAIM)
    assert store.allocator.total_free_blocks == before
    assert not store.exists("/f")
    assert store.file_count == 0


def test_op_counters(store):
    store.create_file("/f", claim=CLAIM)
    store.lookup("/f")
    assert store.ops == 2
    assert store.meta_writes >= 1
    assert store.meta_reads >= 1


def test_needs_allocation_helper(store):
    ino = store.create_file("/f", size=BLOCK_SIZE, claim=CLAIM)
    assert ino.needs_allocation(3 * BLOCK_SIZE) == 2
    assert ino.needs_allocation(BLOCK_SIZE) == 0


def test_every_mutator_refuses_a_missing_dead_or_forged_claim(store):
    ino = store.create_file("/f", claim=CLAIM)
    dead = MutationClaim()
    dead.live = False

    class Forged:
        live = True
    mutations = [lambda c: store.create_file("/g", claim=c),
                 lambda c: store.ensure_size(ino.file_id, BLOCK_SIZE, now=1.0,
                                             claim=c),
                 lambda c: store.set_attrs(ino.file_id, now=1.0, claim=c),
                 lambda c: store.unlink("/f", claim=c)]
    for mutate in mutations:
        for claim in (None, dead, Forged()):
            with pytest.raises(ClaimError):
                mutate(claim)
    assert (store.ops, store.file_count, ino.attrs.size) == (1, 1, 0)
