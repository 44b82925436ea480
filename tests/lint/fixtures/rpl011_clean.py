"""Fixture: every mutation runs in a body handed to the barrier (RPL011
silent)."""


class Server:
    def __init__(self, meta, barrier):
        self.meta = meta
        self.barrier = barrier

    def _h_create(self, msg):
        path = msg.payload["path"]

        def apply():
            self.meta.create_file(path)
            return ("ack", {})
        return (yield from self.barrier.mutate({"paths": [path]}, apply))

    def _h_unlink(self, msg):
        path = msg.payload["path"]
        return self.barrier.mutate({"paths": [path]},
                                   lambda: self.meta.unlink(path))
