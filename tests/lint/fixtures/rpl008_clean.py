"""Fixture: deadlines from local clocks and constants (RPL008 silent)."""


class Client:
    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.lease_period = 5.0

    def on_renew(self, msg):
        seq = msg.payload["seq"]  # payload read, but never near a timer
        self.endpoint.local_timeout(self.lease_period / 2.0)
        return ("ack", {"seq": seq})
