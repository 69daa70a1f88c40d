"""Real UDP/loopback transfers of the three protocol families.

The protocols themselves are the substrate-free machines of
:mod:`repro.service.machines`, the same objects the concurrent service
runs; this package drives them over a socket.  Loss is injected at send
time through the same error models the simulator uses.

Typical use (receiver in a thread, sender in the caller)::

    from repro.udpnet import UdpReceiver, UdpSender
    receiver = UdpReceiver()
    # ... start receiver.serve_one(strategy="gobackn") in a thread ...
    sender = UdpSender()
    outcome = sender.send(data, receiver.address, strategy="gobackn")
"""

from ..faults.socket import FaultySocket
from .endpoints import DEFAULT_PACKET_BYTES, UdpEndpoint, UdpTransferOutcome
from .fileserver import FileServiceError, UdpFileClient, UdpFileServer
from .transfer import UdpReceiver, UdpSender

__all__ = [
    "UdpEndpoint",
    "UdpTransferOutcome",
    "DEFAULT_PACKET_BYTES",
    "FaultySocket",
    "UdpSender",
    "UdpReceiver",
    "UdpFileServer",
    "UdpFileClient",
    "FileServiceError",
]
