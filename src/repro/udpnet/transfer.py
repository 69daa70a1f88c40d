"""One transfer over real UDP sockets, driven by the service machines.

:class:`UdpSender` and :class:`UdpReceiver` carry no protocol logic of
their own: they drive :func:`~repro.service.machines.make_sender_machine`
and :func:`~repro.service.machines.receiver_for`, keyed by the service's
protocol names (``blast``, ``sliding``, ``saw``), over an endpoint's
socket.  The sender loop is poll, send every ready frame, receive until
the machine's next deadline, feed the reply in; the receiver is the
endpoint's shared receive loop.  Sliding window runs with a window of
the whole transfer — the paper's never-closing window — under the fixed
controller.  Blast strategies that keep the last packet reliable
(§3.2.3) time an overdue round out with the machine's
:meth:`~repro.service.machines.BlastSenderMachine.nudge`, which re-sends
only the reply-requesting packet.
"""

from __future__ import annotations

import time
from typing import Tuple

from ..core.frames import AckFrame, NakFrame
from ..core.strategies import FailureDetection, get_strategy
from ..service.machines import make_sender_machine, receiver_for
from .endpoints import UdpEndpoint, UdpTransferOutcome

__all__ = ["UdpSender", "UdpReceiver"]


class UdpSender(UdpEndpoint):
    """Sends one transfer per :meth:`send` call."""

    def send(
        self,
        data: bytes,
        dst: Tuple[str, int],
        protocol: str = "blast",
        strategy: str = "selective",
        timeout_s: float = 0.1,
        transfer_id: int = 1,
    ) -> UdpTransferOutcome:
        """Transfer ``data`` to ``dst``; blocks until done or given up.

        ``timeout_s`` is the retransmission timer T_r.  ``strategy``
        picks the blast retransmission scheme and is ignored otherwise.
        The machine's round cap (attempts per packet for the
        per-packet-acknowledged protocols) bounds a hopeless transfer.
        """
        packets = max(1, -(-len(data) // self.packet_bytes))
        machine = make_sender_machine(
            protocol, transfer_id, data, self.packet_bytes, timeout_s,
            strategy=strategy, window=packets,
        )
        nudge = (protocol == "blast" and get_strategy(strategy).mode
                 is FailureDetection.LAST_PACKET_RELIABLE)
        start = time.monotonic()
        timeouts = 0
        while True:
            now = time.monotonic()
            if nudge:
                machine.nudge(now)
            machine.poll(now)
            if machine.finished:
                break
            for _ in range(machine.frames_available(now)):
                self._send_frame(machine.next_frame(now), dst)
            got = self._recv_frame(machine.next_deadline() - time.monotonic())
            if got is None:
                timeouts += 1
                continue
            frame, _ = got
            if (isinstance(frame, (AckFrame, NakFrame))
                    and frame.stream_id == transfer_id):
                machine.on_frame(frame, time.monotonic())
        result = machine.outcome()
        return UdpTransferOutcome(
            ok=result.ok,
            elapsed_s=time.monotonic() - start,
            payload_bytes=len(data),
            n_packets=result.packets,
            data_frames_sent=result.data_frames_sent,
            retransmissions=result.retransmits,
            timeouts=timeouts,
            rounds=result.rounds,
            error=result.error,
        )


class UdpReceiver(UdpEndpoint):
    """Receives one transfer per :meth:`serve_one` call."""

    def serve_one(
        self,
        protocol: str = "blast",
        strategy: str = "selective",
        transfer_id: int = 1,
        timeout_s: float = 10.0,
        linger_s: float = 0.1,
    ) -> UdpTransferOutcome:
        """Receive transfer ``transfer_id``; returns the reassembled data.

        ``protocol`` and ``strategy`` must match the sender's: they pick
        the replies (per-packet ACKs, or ACK/NAK on reply requests, or
        silence for the timer-only blast).  ``timeout_s`` bounds every
        wait for the next data frame, the first one included.
        """
        receiver = receiver_for(protocol, transfer_id, strategy)
        if not self._receive_stream(receiver, timeout_s):
            return UdpTransferOutcome(
                ok=False, elapsed_s=0.0, payload_bytes=0, n_packets=0,
                error="timed out waiting for data",
            )
        self._receive_stream(receiver, linger_s)
        data = receiver.data
        return UdpTransferOutcome(
            ok=True,
            elapsed_s=time.monotonic() - receiver.first_frame_at,
            payload_bytes=len(data),
            n_packets=receiver.tracker.total,
            data=data,
            reply_frames_sent=receiver.replies_sent,
            duplicates=receiver.duplicates,
        )
