"""Fixture: mutations that bypass the cache barrier (RPL011 fires)."""


class Server:
    def __init__(self, meta, barrier):
        self.meta = meta
        self.barrier = barrier

    def _h_create(self, msg):
        path = msg.payload["path"]
        if msg.payload["fast"]:
            # Fast path applies without the barrier.
            self.meta.create_file(path)
            return ("ack", {})

        def apply():
            self.meta.create_file(path)
            return ("ack", {})
        return (yield from self.barrier.mutate({"paths": [path]}, apply))

    def _h_setattr(self, msg):
        def apply():
            return self.meta.set_attrs(msg.payload["file_id"])
        # The body exists but runs directly, never through the barrier.
        return apply()

    def _h_unlink(self, msg):
        path = msg.payload["path"]

        def apply():
            self.meta.unlink(path)
            return ("ack", {})
        if msg.payload["fast"]:
            # Handed to the barrier below, but run directly here.
            return apply()
        return (yield from self.barrier.mutate({"paths": [path]}, apply))
