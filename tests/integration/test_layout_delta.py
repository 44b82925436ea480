"""Layout generations with delta replies (PR 17).

A request may name the block map the client already holds; the server
answers with only the runs past it when it can prove that map is a
prefix of the current one, and with the full list otherwise.  The client
applies a delta by position to the map object its request advertised.
"""

from dataclasses import replace

import pytest

from repro.core.config import NetworkConfig
from repro.locks import LockMode
from repro.net import MsgKind, ReplyObserver
from repro.net.message import LockAcquire, Open, OpenIntent, Setattr
from repro.storage import BLOCK_SIZE
from repro.storage.blockmap import ExtentMap, extents_to_payload

from tests.conftest import make_system, run_gen

TAU, EPS = 30.0, 0.05


class LayoutReplies(ReplyObserver):
    """Every reply carrying layout fields, as ``(extents_from, n_runs)``."""

    def __init__(self, endpoint):
        self.seen = []
        endpoint.observers.append(self)

    def on_reply(self, reply, renewal_time):
        """Record the layout fields of one delivered reply."""
        payloads = reply.payload.get("results", [reply.payload])
        for p in payloads:
            if "extents" in p:
                self.seen.append((p["extents_from"], len(p["extents"])))


def server_runs(system, fid, server="server"):
    return extents_to_payload(
        system.server_node(server).metadata.inode(fid).extents)


def grow(client, fd, n_blocks):
    """One growth write ending at block ``n_blocks``."""
    return client.write(fd, (n_blocks - 1) * BLOCK_SIZE, BLOCK_SIZE)


def test_interleaved_growths_track_the_servers_map():
    """Two clients grow their own files in turn, so each file's runs
    interleave on the disks and every growth adds extents.  After N
    rounds each client's map is the server's, and once a map is held
    every reply is a delta."""
    s = make_system(n_clients=2)
    c1, c2 = s.client("c1"), s.client("c2")
    replies = LayoutReplies(c1.endpoint)
    out = {}

    def work():
        for c, path in ((c1, "/a"), (c2, "/b")):
            out[path] = yield from c.create(path, size=BLOCK_SIZE)
        fds = {}
        for n in range(2, 14):
            for c, path in ((c1, "/a"), (c2, "/b")):
                if n % 4 == 2:          # reopen now and then
                    if path in fds:
                        yield from c.close(fds[path])
                    fds[path] = yield from c.open_file(path, "w")
                yield from grow(c, fds[path], n)
                assert extents_to_payload(c.fds.get(fds[path]).extents) == \
                    server_runs(s, out[path])
    run_gen(s, work())
    assert len(server_runs(s, out["/a"])) > 6
    created, first_open, *rest = replies.seen
    assert created[0] == first_open[0] == 0    # nothing held yet: everything
    assert all(k > 0 for k, _n in rest)        # ever after: only the tail
    assert all(n <= 2 for _k, n in rest)
    # A reopen of an unchanged file carries no run at all.
    assert any(n == 0 for _k, n in rest)


def test_second_fd_on_the_same_file_sees_the_growth():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def work():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd1 = yield from c.open_file("/f", "r")
        fd2 = yield from c.open_file("/f", "w")
        yield from grow(c, fd2, 5)
        return fd1, fd2
    fd1, fd2 = run_gen(s, work())
    assert c.fds.get(fd1).extents is c.fds.get(fd2).extents
    assert c.fds.get(fd1).extents.block_count == 5
    assert run_gen(s, c.read(fd1, 4 * BLOCK_SIZE, BLOCK_SIZE))[0][0] == 4


def _concurrent_growths(seed, jitter):
    """Two growth writes in flight on one fd; returns (system, client,
    fid, the order their layout replies arrived in)."""
    s = make_system(n_clients=2, seed=seed,
                    network=NetworkConfig(ctrl_jitter=jitter))
    c, other = s.client("c1"), s.client("c2")
    replies = LayoutReplies(c.endpoint)
    out = {}

    def setup():
        out["fid"] = yield from c.create("/f", size=BLOCK_SIZE)
        yield from other.create("/other", size=BLOCK_SIZE)
        out["fd"] = yield from c.open_file("/f", "w")
        out["ofd"] = yield from other.open_file("/other", "w")
        # Fragment /f: each of its growths lands behind one of /other's.
        for n in range(2, 5):
            yield from grow(c, out["fd"], n)
            yield from grow(other, out["ofd"], n)
    run_gen(s, setup())
    del replies.seen[:]
    a = s.spawn(grow(c, out["fd"], 6))
    b = s.spawn(grow(c, out["fd"], 9))
    s.sim.run_until_event(s.sim.all_of([a, b]), hard_limit=600.0)
    return s, c, out, replies.seen


def test_concurrent_growths_on_one_fd_converge():
    s, c, out, seen = _concurrent_growths(seed=42, jitter=0.0)
    of = c.fds.get(out["fd"])
    assert extents_to_payload(of.extents) == server_runs(s, out["fid"])
    assert of.extents.block_count == 9
    # Both requests advertised the same map, so the second delta overlaps
    # the first: applied by position, the overlap is skipped.
    assert [k for k, _n in seen] == [seen[0][0]] * 2
    assert seen[1][1] > seen[0][1]


def test_reordered_growth_replies_converge():
    """With jitter far above the base delay the later-executed reply can
    arrive first.  The map must not shrink back to the earlier one (at
    the parent the last reply to arrive replaced the whole list)."""
    replies_swapped = requests_swapped = 0
    for seed in range(32):
        s, c, out, seen = _concurrent_growths(seed=seed, jitter=0.05)
        of = c.fds.get(out["fd"])
        assert extents_to_payload(of.extents) == server_runs(s, out["fid"])
        assert of.extents.block_count == 9
        first_end, second_end = (k + n for k, n in seen)
        replies_swapped += first_end > second_end
        # The larger growth ran first; the smaller found nothing to add.
        requests_swapped += seen[0] == seen[1]
        run_gen(s, c.read(out["fd"], 8 * BLOCK_SIZE, BLOCK_SIZE))
    assert replies_swapped >= 2 and requests_swapped >= 2, \
        "the seeds no longer reorder the datagrams; raise the jitter"


def _opened_and_grown(s, c, path="/f"):
    def work():
        fid = yield from c.create(path, size=BLOCK_SIZE)
        fd = yield from c.open_file(path, "w")
        yield from grow(c, fd, 3)
        yield from c.close(fd)
        return fid
    return run_gen(s, work())


@pytest.mark.parametrize("how", ["lease_expiry", "lock_demand", "unlink"])
def test_dropping_the_file_drops_its_map(how):
    """Wherever a file's pages go, its cached map goes: the next open
    sends no hint and gets the full list."""
    s = make_system(n_clients=2)
    c, c2 = s.client("c1"), s.client("c2")
    fid = _opened_and_grown(s, c)
    assert c.data.layouts[fid].block_count == 3
    replies = LayoutReplies(c.endpoint)
    if how == "lease_expiry":
        c.force_lease_expiry()
    elif how == "lock_demand":
        run_gen(s, c2.open_file("/f", "w"))     # demands c1's X lock back
    else:
        run_gen(s, c.unlink("/f"))
        assert "/f" not in c.data.path_fid
    assert fid not in c.data.layouts
    if how == "unlink":
        return

    def reopen():
        fd = yield from c.open_file("/f", "r")
        return c.fds.get(fd).extents
    held = run_gen(s, reopen())
    assert replies.seen[-1] == (0, len(server_runs(s, fid)))
    assert extents_to_payload(held) == server_runs(s, fid)
    assert c.data.layouts[fid] is held


def test_one_servers_expiry_drops_only_its_files_maps():
    s = make_system(n_servers=2)   # static hash-sharding, no cluster
    c = s.client("c1")
    p1 = next(f"/ind/f{i}" for i in range(2000)
              if c.server_for_path(f"/ind/f{i}") == "server1")
    p2 = next(f"/ind/f{i}" for i in range(2000)
              if c.server_for_path(f"/ind/f{i}") == "server2")
    fid1 = _opened_and_grown(s, c, p1)
    fid2 = _opened_and_grown(s, c, p2)
    assert set(c.data.layouts) == {fid1, fid2}
    s.control_net.block("c1", "server1")
    s.control_net.block("server1", "c1")
    s.run(until=s.sim.now + TAU * (1 + EPS) + 15.0)
    assert set(c.data.layouts) == {fid2}
    s.control_net.unblock("c1", "server1")
    s.control_net.unblock("server1", "c1")
    s.run(until=s.sim.now + TAU)             # a keep-alive probe gets through
    assert c.lease_for("server1").active
    replies = LayoutReplies(c.endpoint)

    def reopen():
        for path in (p2, p1):
            yield from c.open_file(path, "r")
    run_gen(s, reopen())
    assert replies.seen[0] == (len(server_runs(s, fid2, "server2")), 0)
    assert replies.seen[1] == (0, len(server_runs(s, fid1, "server1")))


def test_reply_arriving_after_the_drop_still_yields_a_correct_map():
    """The hint went out, then the cache was invalidated, then the delta
    arrived: it applies to the object the request advertised, which is
    complete, never to the (now empty) cache slot."""
    s = make_system(n_clients=1)
    c = s.client("c1")
    fid = _opened_and_grown(s, c)
    fd = run_gen(s, c.open_file("/f", "w"))
    advertised = c.data.layouts[fid]
    proc = s.spawn(grow(c, fd, 6))
    s.run(until=s.sim.now + 1e-6)            # the setattr intent is out
    assert c.fds.get(fd).extents.block_count == 3
    c.data.drop_file(fid)                        # e.g. a demand compliance
    s.sim.run_until_event(proc, hard_limit=600.0)
    of = c.fds.get(fd)
    assert of.extents is advertised
    assert extents_to_payload(of.extents) == server_runs(s, fid)
    assert of.extents.block_count == 6


def test_a_new_generation_replaces_the_map():
    """A map off the current lineage is never patched: the server sends
    the full list and the client starts a new map object."""
    s = make_system(n_clients=1)
    c = s.client("c1")
    fid = _opened_and_grown(s, c)
    old = c.data.layouts[fid]
    ino = s.server_node("server").metadata.inode(fid)
    ino.extents = ExtentMap(extents=list(reversed(ino.extents.extents)),
                            layout_gen=ino.extents.layout_gen + 1)
    replies = LayoutReplies(c.endpoint)
    fd = run_gen(s, c.open_file("/f", "r"))
    new = c.fds.get(fd).extents
    assert replies.seen == [(0, len(ino.extents.extents))]
    assert new is not old and new.layout_gen == old.layout_gen + 1
    assert extents_to_payload(new) == server_runs(s, fid)
    assert extents_to_payload(old) != server_runs(s, fid)   # left alone


def test_untrusted_hints_get_the_full_list():
    """The hint is input from an untrusted client (DESIGN §17): anything
    but a provable prefix of this file's current lineage is answered
    with everything, never with an exception or an unchecked index."""
    s = make_system(n_clients=1)
    c = s.client("c1")
    fid = _opened_and_grown(s, c)
    other = _opened_and_grown(s, c, "/g")
    full = server_runs(s, fid)
    n = len(full)
    assert n >= 2
    bad_hints = [
        None, (), "abc", 7, {"file_id": fid}, (fid, 0), (fid, 0, n, 0),
        (other, 0, 1),                      # another file's map
        (fid, 1, 1), (fid, -1, 1),          # off the lineage
        (fid, 0, -1), (fid, 0, n + 1), (fid, 0, 10 ** 9),
        (fid, 0, 1.0), (float(fid), 0, 1), (fid, 0.0, 1),
        (fid, 0, True), (fid, 0, "1"), (fid, 0, None), (fid, None, 1),
        [fid, 0, [1]],
    ]
    requests = [
        (MsgKind.LOCK_INTENT, OpenIntent("/f", "r")),
        (MsgKind.LOCK_INTENT, Setattr(fid, size=BLOCK_SIZE)),
        (MsgKind.LOCK_ACQUIRE, LockAcquire(fid, int(LockMode.SHARED))),
        (MsgKind.SETATTR, Setattr(fid)),
        (MsgKind.OPEN, Open("/f")),
    ]

    def work():
        for kind, body in requests:
            for hint in bad_hints:
                reply = yield from c.endpoint.request(
                    "server", kind, replace(body, have_layout=hint))
                p = reply.payload
                assert (p["layout_gen"], p["extents_from"], p["extents"]) \
                    == (0, 0, full), (kind, hint)
            # ...and the honest hints, list or tuple, get exactly the tail.
            for k in range(n + 1):
                for hint in ((fid, 0, k), [fid, 0, k]):
                    reply = yield from c.endpoint.request(
                        "server", kind, replace(body, have_layout=hint))
                    p = reply.payload
                    assert (p["extents_from"], p["extents"]) == \
                        (k, full[k:]), (kind, hint)
    run_gen(s, work())


def test_requests_without_a_hint_keep_getting_full_lists():
    """The lock-free ``OPEN`` (the NFS-polling baseline), plain ``CREATE``
    and plain ``SETATTR`` send no hint."""
    s = make_system(n_clients=1, protocol="nfs")
    c = s.client("c1")
    replies = LayoutReplies(c.endpoint)

    def work():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        for n in range(2, 5):
            yield from grow(c, fd, n)
        yield from c.close(fd)
        fd = yield from c.open_file("/f", "r")
        return c.fds.get(fd)
    of = run_gen(s, work())
    assert replies.seen and all(k == 0 for k, _n in replies.seen)
    assert extents_to_payload(of.extents) == server_runs(s, of.file_id)
