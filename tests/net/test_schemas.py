"""The declared request schemas: one per request kind, enforced by
``Endpoint.request`` before anything is sent."""

import dataclasses

import pytest

from repro.net import ControlNetwork, Endpoint
from repro.net.message import (INTENT_OPS, KIND_GROUPS, SCHEMAS, Create,
                               Getattr, LockDemand, MsgKind, RangeDemand)
from repro.sim import ClockEnsemble, RandomStreams, Simulator, TraceRecorder


@pytest.fixture
def pair():
    sim = Simulator()
    streams = RandomStreams(3)
    net = ControlNetwork(sim, streams, TraceRecorder())
    ens = ClockEnsemble(0.0, streams)
    server = Endpoint(sim, net, "server", ens.create("server", offset=0.0))
    client = Endpoint(sim, net, "client", ens.create("client", offset=0.0))
    return sim, net, server, client


def _sent(sim, client, kind, payload):
    """Run one request; returns its process (defused)."""
    proc = sim.process(client.request("server", kind, payload))
    proc.defuse()
    sim.run()
    return proc


def test_a_missing_or_unknown_field_is_a_type_error():
    with pytest.raises(TypeError):
        Create()                                    # path is required
    with pytest.raises(TypeError):
        Create(path="/f", sise=3)                   # no such field
    assert Create("/f") == Create(path="/f", size=0)


def test_a_schema_is_no_dict():
    """A payload still read dict-style fails loudly, never quietly."""
    body = Getattr(path="/f")
    with pytest.raises(TypeError):
        "path" in body
    with pytest.raises(TypeError):
        body["path"]
    with pytest.raises(AttributeError):
        body.get("path")


def test_a_kind_refuses_another_kinds_schema(pair):
    sim, net, server, client = pair
    server.register(MsgKind.LOCK_DEMAND, lambda m: ("ack", {}))
    proc = _sent(sim, client, MsgKind.LOCK_DEMAND, RangeDemand(1))
    assert isinstance(proc.exception, TypeError)
    assert "LockDemand" in str(proc.exception)
    assert "RangeDemand" in str(proc.exception)
    assert net.delivered_count == 0 and client.rpc_sent == {}
    proc = _sent(sim, client, MsgKind.LOCK_DEMAND, {"file_id": 1})
    assert isinstance(proc.exception, TypeError)
    proc = _sent(sim, client, MsgKind.LOCK_DEMAND, LockDemand(1, 2))
    assert proc.value.payload == {}


def test_a_kind_without_a_schema_passes_its_payload_through(pair):
    sim, net, server, client = pair
    seen = []
    server.register("t.probe", lambda m: (seen.append(m.payload), None)[1])
    body = {"k": 1}
    _sent(sim, client, "t.probe", body)
    assert seen == [body] and seen[0] is body


def test_every_request_kind_has_exactly_one_schema():
    grouped = [kind for group in KIND_GROUPS.values() for kind in group]
    replies = {MsgKind.ACK, MsgKind.NACK}
    assert set(SCHEMAS) == set(grouped) - replies
    assert len(grouped) == len(set(grouped))        # one table entry each
    for kind, schema in SCHEMAS.items():
        classes = schema if isinstance(schema, tuple) else (schema,)
        for cls in classes:
            assert dataclasses.is_dataclass(cls), kind
            assert "__slots__" in vars(cls), kind
    assert SCHEMAS[MsgKind.LOCK_INTENT] is INTENT_OPS
