"""Message vocabulary and wire-size accounting."""

from repro.net import Ack, Message, Nack
from repro.net.message import DataWrite, MsgKind


def test_msg_ids_unique():
    a = Message(src="a", dst="b", kind=MsgKind.OPEN)
    b = Message(src="a", dst="b", kind=MsgKind.OPEN)
    assert a.msg_id != b.msg_id


def test_ack_is_reply():
    ack = Ack("s", "c", reply_to=7)
    assert ack.is_reply()
    assert ack.reply_to == 7
    assert ack.kind == MsgKind.ACK


def test_nack_is_reply():
    nack = Nack("s", "c", reply_to=7, payload={"error": "x"})
    assert nack.is_reply()
    assert nack.payload["error"] == "x"


def test_request_is_not_reply():
    assert not Message(src="a", dst="b", kind=MsgKind.GETATTR).is_reply()


def test_size_header_only():
    msg = Message(src="a", dst="b", kind=MsgKind.GETATTR)
    assert msg.size_bytes() == 64


def test_size_counts_data_bytes():
    msg = Message(src="a", dst="b", kind=MsgKind.DATA_WRITE,
                  payload=DataWrite(file_id=1, block=0, tag="t",
                                    data_bytes=4096))
    assert msg.size_bytes() == 64 + 4096
    # A function-shipped read's data rides its reply.
    assert Ack("s", "c", reply_to=7,
               payload={"data_bytes": 4096}).size_bytes() == 64 + 4096
