"""Invalidate-before-apply by construction: the metadata store's
mutators take a claim that only ``CacheBarrier.mutate`` mints, live
for exactly the run of the body it is handed (DESIGN.md §15)."""

import ast
from pathlib import Path

import pytest

from repro.core.config import NetCacheConfig
from repro.metadata.store import ClaimError
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, read_via, run_gen

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_only_the_barrier_mints_claims():
    minted = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "MutationClaim"):
                minted.append(path.relative_to(SRC).as_posix())
    assert minted == ["server/barrier.py"]


def _mutate(system, body, **keys):
    return run_gen(system, system.server.barrier.mutate(body, **keys))


@pytest.mark.parametrize("cache_nodes", [0, 2])
def test_a_claim_is_live_only_while_its_body_runs(cache_nodes):
    """With no holder the barrier only runs the body; with one it
    invalidates first.  Either way the claim dies when the body ends,
    and a body that keeps it cannot mutate later."""
    system = make_system(n_clients=1,
                         netcache=NetCacheConfig(n_nodes=cache_nodes))
    store, now = system.server.metadata, system.sim.now
    if cache_nodes:
        read_via(system, "mcache1", "/", kind="fs.readdir")
    kept = []

    def body(claim):
        kept.append((claim, claim.live))
        return store.create_file("/f", BLOCK_SIZE, now, claim=claim)
    ino = _mutate(system, body, paths=("/f",), dirs=("/",))
    [(claim, live_inside)] = kept
    assert live_inside and not claim.live
    if cache_nodes:
        assert system.netcache["mcache1"].invalidations == 1
    for mutation in (lambda: store.unlink("/f", claim=claim),
                     lambda: store.ensure_size(ino.file_id, 2 * BLOCK_SIZE,
                                               now, claim=claim)):
        with pytest.raises(ClaimError):
            mutation()
    assert store.exists("/f") and ino.attrs.size == BLOCK_SIZE


def test_a_claim_dies_when_its_body_raises():
    system = make_system(n_clients=1)
    kept = []

    def body(claim):
        kept.append(claim)
        raise KeyError("boom")
    with pytest.raises(KeyError):
        _mutate(system, body, paths=("/f",))
    assert not kept[0].live
