"""Fixture: cross-node clock reads (RPL003 fires)."""


class Protocol:
    def __init__(self, self_node, peer):
        self.node = self_node
        self.peer = peer

    def skewed(self, nodes, i):
        a = self.peer.endpoint.local_now()
        b = nodes[i].endpoint.local_now()
        c = self.node.clock.local_time(0.0)
        d = self.peer.endpoint.global_interval(1.0)
        return a, b, c, d
