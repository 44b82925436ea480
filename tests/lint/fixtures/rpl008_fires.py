"""Fixture: payload timestamp laundered into a timer (RPL008 fires)."""


class Client:
    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.lease_period = 5.0

    def on_renew(self, msg):
        remote_expiry = msg.payload["expires_at"]
        # Laundered through arithmetic and a second binding.
        delay = remote_expiry - self.endpoint.local_now()
        budget = delay / 2.0
        self.endpoint.local_timeout(budget)
        return ("ack", {})

    def on_grace(self, msg):
        # Laundered into a closure: the nested waiter sees the parent's
        # payload-derived name.
        wait_local = msg.payload["grace_until"] - self.endpoint.local_now()

        def waiter():
            yield self.endpoint.local_timeout(max(wait_local, 0.0))
        return waiter()
