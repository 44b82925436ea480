"""DataPath against a fake SAN: no network, no kernel, no node."""

from types import SimpleNamespace

import pytest

from repro.client.datapath import ClientIOError, DataPath
from repro.client.openfile import FdTable
from repro.locks.modes import LockMode
from repro.metadata.inode import FileAttributes
from repro.net.message import Ack, DeliveryError, Message, MsgKind
from repro.sim import TraceRecorder
from repro.storage.blockmap import BLOCK_SIZE, ExtentMap
from repro.storage.disk import FencedIoError


class FakeSan:
    """One never-waiting device per name; ``deny`` fences devices."""

    def __init__(self):
        self.blocks = {}      # (device, lba) -> (tag, version)
        self.deny = set()
        self.writes = []      # (device, {lba: tag}) per command

    def read(self, initiator, device, lba, n):
        if device in self.deny:
            raise FencedIoError(device, initiator, "read")
        return [SimpleNamespace(tag=self.blocks.get((device, lba + i),
                                                    (None, 0))[0],
                                version=self.blocks.get((device, lba + i),
                                                        (None, 0))[1])
                for i in range(n)]
        yield

    def write(self, initiator, device, block_tags):
        if device in self.deny:
            raise FencedIoError(device, initiator, "write")
        self.writes.append((device, dict(block_tags)))
        versions = {}
        for lba, tag in block_tags.items():
            version = self.blocks.get((device, lba), (None, 0))[1] + 1
            self.blocks[(device, lba)] = (tag, version)
            versions[lba] = version
        return versions
        yield


def finish(gen):
    """Run a generator that never waits; return its value."""
    try:
        next(gen)
    except StopIteration as done:
        return done.value
    raise AssertionError("the fake SAN never waits")


def make(rpc=None):
    san = FakeSan()
    trace = TraceRecorder(enabled=True)
    data = DataPath(SimpleNamespace(now=0.0), san, "c1", trace, rpc=rpc)
    extents = ExtentMap()
    extents.apply_runs(0, [("d1", 100, 2), ("d2", 500, 2)])
    of = FdTable().install("/f", 7, "w", FileAttributes(), extents,
                           LockMode.NONE)
    return data, san, trace, of


def kinds(trace):
    return [r.kind for r in trace.records]


def test_write_back_batches_by_device_and_marks_pages_clean():
    data, san, trace, of = make()
    tag = data.write(of, 0, 4 * BLOCK_SIZE)
    assert tag == "c1:w1" and data.cache.dirty_count == 4
    assert finish(data.flush(7)) == 4
    assert san.writes == [("d1", {100: tag, 101: tag}),
                          ("d2", {500: tag, 501: tag})]
    assert data.cache.dirty_count == 0
    assert kinds(trace) == ["app.write.ack"] + ["cache.flushed"] * 4
    assert trace.records[0].detail["phys"] == [("d1", 100), ("d1", 101),
                                               ("d2", 500), ("d2", 501)]


def test_a_failed_batch_reports_its_file_and_hardens_the_rest():
    data, san, trace, of = make()
    other = FdTable().install("/g", 8, "w", FileAttributes(), ExtentMap(),
                              LockMode.NONE)
    other.extents.apply_runs(0, [("d2", 900, 1)])
    lost = data.write(of, 0, BLOCK_SIZE)            # on d1
    kept = data.write(other, 0, BLOCK_SIZE)         # on d2
    san.deny.add("d1")
    assert finish(data.flush()) == 1
    assert data.app_errors == 1
    [err] = trace.select(kind="app.error")
    assert err.detail == {"file_id": 7, "tag": lost,
                          "reason": "FencedIoError"}
    assert san.blocks[("d2", 900)][0] == kept
    assert len(data.cache) == 1 and data.layouts.get(7) is None


def test_flush_without_reporting_stays_silent_and_keeps_the_pages():
    data, san, trace, of = make()
    data.write(of, 0, BLOCK_SIZE)
    san.deny.add("d1")
    assert finish(data.flush(report_errors=False)) == 0
    assert data.app_errors == 0 and data.cache.dirty_count == 1


def test_reads_hit_the_cache_and_a_fenced_miss_is_a_client_io_error():
    data, san, trace, of = make()
    san.blocks[("d1", 100)] = ("old", 3)
    assert finish(data.read(of, 0, BLOCK_SIZE)) == [(0, "old")]
    san.blocks[("d1", 100)] = ("new", 4)
    assert finish(data.read(of, 0, BLOCK_SIZE)) == [(0, "old")]     # a hit
    assert finish(data.read(of, 0, BLOCK_SIZE,
                            through_cache=False)) == [(0, "new")]
    assert data.cache.stats.hits == 1 and data.cache.stats.misses == 1
    san.deny.add("d2")
    with pytest.raises(ClientIOError):
        finish(data.read(of, 2 * BLOCK_SIZE, BLOCK_SIZE))
    assert data.app_errors == 1
    assert trace.select(kind="app.error")[0].detail == {
        "file_id": 7, "tag": None, "reason": "FencedIoError"}
    assert kinds(trace).count("app.read") == 3      # the failed read: none


def test_write_through_acknowledges_only_what_is_hard():
    data, san, trace, of = make()
    tag = finish(data.write_through(of, BLOCK_SIZE, 2 * BLOCK_SIZE))
    assert san.blocks[("d1", 101)][0] == san.blocks[("d2", 500)][0] == tag
    assert len(data.cache) == 0 and kinds(trace) == ["app.write.ack"]
    san.deny.add("d1")
    with pytest.raises(FencedIoError):
        finish(data.write_through(of, 0, BLOCK_SIZE))
    assert kinds(trace) == ["app.write.ack"]        # no ack for the failure


def test_function_shipped_io_goes_one_page_per_request():
    sent = []

    def rpc(kind, payload, route=None):
        sent.append((kind, payload["block"], route))
        if kind == MsgKind.DATA_WRITE and payload["block"] == 1:
            raise DeliveryError(Message("c1", "server", kind), 4)
        return Ack("server", "c1", 1, payload={"tag": "t", "version": 9})
        yield
    data, san, trace, of = make(rpc=rpc)
    assert finish(data.read(of, 0, BLOCK_SIZE)) == [(0, "t")]
    data.write(of, 0, 2 * BLOCK_SIZE)
    assert finish(data.flush()) == 1
    assert sent == [(MsgKind.DATA_READ, 0, ("file", 7)),
                    (MsgKind.DATA_WRITE, 0, ("file", 7)),
                    (MsgKind.DATA_WRITE, 1, ("file", 7))]
    assert san.writes == [] and data.app_errors == 1
    assert trace.select(kind="app.error")[0].detail["reason"] == \
        "DeliveryError"


def test_a_reply_extends_the_map_the_request_named_and_no_other():
    data, _, _, of = make()
    reply = {"layout_gen": 0, "extents_from": 0,
             "extents": [("d1", 100, 2), ("d2", 500, 2)]}
    data.apply_meta_reply(of, reply, None)
    held = data.layouts.get(7)
    assert held is of.extents and held.block_count == 4
    assert data.layout_hint(7, held) == {"have_layout": (7, 0, 2)}
    data.apply_meta_reply(of, {"layout_gen": 0, "extents_from": 2,
                               "extents": [("d1", 300, 1)]}, held)
    assert data.layouts.get(7) is held and held.block_count == 5
    data.apply_meta_reply(of, {**reply, "layout_gen": 1}, held)
    assert data.layouts.get(7) is not held and data.layouts.get(7).block_count == 4
    assert data.drop_file(7) == [] and 7 not in data.layouts
