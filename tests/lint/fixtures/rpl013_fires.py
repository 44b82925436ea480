"""Fixture: a second dispatch loop, a second stamp reader and
hand-rolled reply datagrams (RPL013 fires)."""


class Endpoint:
    def request(self, msg, reply, renewal_time):
        for observer in self.observers:
            observer.on_reply(reply, renewal_time)

    def _pending_payload(self, msg, ticket):
        payload = {"__pending__": True, "__ticket__": ticket}
        if self.reply_stamp is not None:
            payload.update(self.reply_stamp(msg))
        return payload

    def _h_result(self, msg):
        self.send_datagram(Ack(self.name, msg.src, msg.msg_id))
