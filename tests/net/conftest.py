"""Shared helpers for the transport tests."""

import pytest

from repro.net import MsgKind, ReplyObserver


class Recorder(ReplyObserver):
    """Records everything an endpoint shows its observers."""

    def __init__(self):
        self.replies = []    # (reply, renewal_time), in delivery order
        self.failures = []   # dst of every exhausted request

    def on_reply(self, reply, renewal_time):
        """Record one delivered reply."""
        self.replies.append((reply, renewal_time))

    def on_delivery_failure(self, dst, msg):
        """Record one exhausted retry budget."""
        self.failures.append(dst)

    def nacks(self):
        """The NACKs seen."""
        return [(r, t) for r, t in self.replies if r.kind == MsgKind.NACK]


@pytest.fixture
def observe():
    """``observe(endpoint)`` attaches and returns a fresh Recorder."""
    def attach(endpoint):
        recorder = Recorder()
        endpoint.observers.append(recorder)
        return recorder
    return attach
