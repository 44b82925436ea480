"""Fixture: a second dispatch loop, a second stamp reader and
hand-rolled reply datagrams (RPL013 fires)."""


class Endpoint:
    def request(self, msg, reply, renewal_time):
        for observer in self.observers:
            observer.on_reply(reply, renewal_time)

    def _pending_receipt(self, msg, ticket):
        stamp = None
        if self.reply_stamp is not None:
            stamp = self.reply_stamp(msg)
        self._reply(msg, "ack", {"ticket": ticket}, stamp, pending=True)

    def _h_result(self, msg):
        self.send_datagram(Ack(self.name, msg.src, msg.msg_id))
