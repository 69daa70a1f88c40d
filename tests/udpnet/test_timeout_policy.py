"""Karn's rule end to end: the UDP sender over real sockets.

The regression at stake: :class:`~repro.core.timers.AdaptiveTimeout`
must never take an RTT sample from an ambiguous exchange — one that
involved a retransmission — or a single delay spike poisons the
estimator for the rest of the transfer (Karn's rule).  The rule itself
lives in the sender machines and is pinned there without sockets
(``tests/service/test_machines.py``); these tests check that the UDP
driver feeds the machine's controller real RTTs.  Fault plans make the
ambiguous exchanges deterministic, and the machine's controller is
swapped for one that routes into an :class:`AdaptiveTimeout`.
"""

import threading

import pytest

from repro.congestion.controller import UNBOUNDED_WINDOW, CongestionController
from repro.core.timers import AdaptiveTimeout
from repro.faults.plan import FaultPlan, FaultRule
from repro.service import machines
from repro.udpnet import UdpReceiver, UdpSender

DATA = bytes(range(256)) * 16  # 4 KB -> 4 packets


class AdaptiveController(CongestionController):
    """Unbounded window; RTO, backoff and samples from an AdaptiveTimeout."""

    name = "adaptive"

    def __init__(self, policy):
        self.policy = policy

    def window(self):
        return UNBOUNDED_WINDOW

    def rto(self):
        return self.policy.current()

    def on_timeout(self, now=0.0):
        self.policy.record_timeout()

    def on_rtt_sample(self, rtt_s):
        self.policy.record_sample(rtt_s)


@pytest.fixture
def adaptive(monkeypatch):
    """Make the next sender machine run under ``AdaptiveTimeout(initial_s)``."""

    def install(initial_s):
        policy = AdaptiveTimeout(initial_s=initial_s)
        monkeypatch.setattr(machines, "make_controller",
                            lambda name, timeout_s: AdaptiveController(policy))
        return policy

    return install


def run_pair(protocol, plan=None):
    box = {}
    with UdpReceiver() as receiver, UdpSender(
        fault_plan=plan, fault_seed=1
    ) as sender:

        def serve():
            box["received"] = receiver.serve_one(protocol=protocol)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        sent = sender.send(DATA, receiver.address, protocol=protocol)
        thread.join(timeout=30)
        assert not thread.is_alive(), "receiver thread hung"
    return sent, box["received"]


def _plan(*rules, name="t", seed=0):
    return FaultPlan(name=name, rules=tuple(rules), seed=seed)


class TestSawAdaptiveTimeout:
    def test_clean_run_samples_every_packet(self, adaptive):
        policy = adaptive(1.0)
        sent, received = run_pair("saw")
        assert sent.ok and received.data == DATA
        assert policy.samples == sent.n_packets
        assert policy.expirations == 0
        # The estimator converged from the terrible initial guess to
        # loopback-scale RTTs.
        assert policy.current() < 1.0
        assert policy.srtt < 0.05

    def test_karn_dropped_ack_round_not_sampled(self, adaptive):
        """Packet 0's first ack is dropped: the retried exchange is
        ambiguous and must not be sampled; the timer must back off."""
        policy = adaptive(0.05)
        sent, received = run_pair("saw", _plan(
            FaultRule(action="drop", kinds=("ack",), direction="recv",
                      indices=(0,))
        ))
        assert sent.ok and received.data == DATA
        assert policy.expirations >= 1  # the drop forced a timer expiry
        # Every packet except the ambiguous one contributed a sample.
        assert policy.samples == sent.n_packets - 1
        assert policy.srtt < 0.05

    def test_karn_duplicate_ack_cascade_not_sampled(self, adaptive):
        """Packet 0's ack is duplicated.  The stale copy arrives while
        the sender waits for packet 1's ack; it must neither be sampled
        a second time nor set off a resend cascade."""
        policy = adaptive(0.5)
        sent, received = run_pair("saw", _plan(
            FaultRule(action="duplicate", kinds=("ack",), direction="recv",
                      indices=(0,), count=1)
        ))
        assert sent.ok and received.data == DATA
        assert sent.retransmissions == 0
        assert policy.samples == sent.n_packets  # one per exchange
        assert policy.srtt < 0.05


class TestSlidingWindowAdaptiveTimeout:
    def test_clean_run_samples_first_round(self, adaptive):
        policy = adaptive(1.0)
        sent, received = run_pair("sliding")
        assert sent.ok and received.data == DATA
        # Every packet of the never-closing window is a first
        # transmission, so every ack is a clean sample.
        assert policy.samples == sent.n_packets
        assert policy.expirations == 0

    def test_lossy_first_round_not_sampled(self, adaptive):
        policy = adaptive(0.05)
        sent, received = run_pair("sliding", _plan(
            FaultRule(action="drop", kinds=("data",), indices=(1,))
        ))
        assert sent.ok and received.data == DATA
        assert sent.retransmissions >= 1
        assert policy.expirations >= 1  # the lost packet's timer expired
        # The lost packet's retried exchange is the one never sampled.
        assert policy.samples == sent.n_packets - 1
