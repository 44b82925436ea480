"""Fixture: one delivery site, one stamp reader, replies built by
``_reply`` (RPL013 silent)."""


class Endpoint:
    def __init__(self):
        self.observers = []
        self.reply_stamp = None

    def request(self, msg, reply, attempt_times):
        self._deliver_reply(msg, reply, attempt_times)

    def _deliver_reply(self, msg, reply, attempt_times):
        for observer in self.observers:
            observer.on_reply(reply, attempt_times.get(reply.reply_to))

    def _stamped(self, msg):
        stamp = self.reply_stamp
        return None if stamp is None else stamp(msg)

    def _h_result(self, msg):
        self._reply(msg, "ack", None, self._stamped(msg))

    def _reply(self, msg, decision, payload, stamp=None):
        if decision == "ack":
            self.send_datagram(Ack(self.name, msg.src, msg.msg_id, payload,
                                   stamp))
        else:
            self.send_datagram(Nack(self.name, msg.src, msg.msg_id, payload))


class Server:
    def __init__(self, endpoint):
        endpoint.reply_stamp = self._stamp

    def _stamp(self, msg):
        return (1, None)
