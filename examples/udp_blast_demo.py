#!/usr/bin/env python3
"""The protocols on REAL sockets: blast vs stop-and-wait over UDP loopback.

Same frame format, same retransmission strategies and the same protocol
machines the concurrent service runs — but actual datagrams through the
kernel's UDP stack, with loss injected at the sender.  Absolute numbers are Python-bound;
the *shape* (blast needs one reply, stop-and-wait needs one per packet,
selective retransmission wastes the fewest frames) is the point.

Run:  python examples/udp_blast_demo.py
"""

import threading

from repro.simnet import BernoulliErrors
from repro.udpnet import UdpReceiver, UdpSender

DATA = bytes(i % 251 for i in range(64 * 1024))  # 64 KB of patterned bytes


def run_pair(protocol, strategy="gobackn", error_model=None):
    """One transfer: receiver in a thread, sender here."""
    box = {}
    with UdpReceiver() as rx, UdpSender(error_model=error_model) as tx:
        def serve():
            box["received"] = rx.serve_one(protocol=protocol, strategy=strategy)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        box["sent"] = tx.send(DATA, rx.address, protocol=protocol,
                              strategy=strategy)
        thread.join(timeout=60)
    return box["sent"], box["received"]


def show(label, sent, received):
    intact = "intact" if received.data == DATA else "CORRUPT"
    print(f"  {label:<28s} {sent.elapsed_s * 1e3:7.1f} ms  "
          f"{sent.data_frames_sent:4d} data frames  "
          f"{received.reply_frames_sent:3d} replies  "
          f"{sent.retransmissions:3d} retx  [{intact}]")


def main() -> None:
    print(f"Transferring {len(DATA) // 1024} KB over UDP loopback "
          f"({len(DATA) // 1024} packets of 1 KB)\n")

    print("Lossless:")
    show("stop-and-wait", *run_pair("saw"))
    show("blast (gobackn)", *run_pair("blast"))

    print("\nWith 5% injected datagram loss:")
    for strategy in ("full_nak", "gobackn", "selective"):
        show(f"blast ({strategy})",
             *run_pair("blast", strategy, BernoulliErrors(
                 0.05, seed=hash(strategy) % 2**31)))
    show("stop-and-wait", *run_pair("saw", error_model=BernoulliErrors(
        0.05, seed=99)))

    print("\nNote how selective retransmission resends almost exactly the "
          "lost frames,\ngo-back-n a little more, and full retransmission "
          "entire 64-packet rounds.")


if __name__ == "__main__":
    main()
