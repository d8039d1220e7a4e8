"""Inter-realm message channel benchmark: plaintext vs AEAD vs shared-region.

Two endpoints in one process exchange messages through a single shared
buffer laid out as two acknowledgment counters plus one depth-1 data slot.
Synchronization is polling: the sender waits until the previous message was
consumed, writes the slot, and bumps the sent counter; the receiver polls
the sent counter, consumes, and bumps the received counter. Counter updates
are single C-level stores under the interpreter lock, so each side observes
the other's writes in order.

Three modes share this exact machinery:

* ``plaintext``  header and payload copied verbatim (models normal-world
  shared memory with no protection),
* ``aead``       header authenticated, payload encrypted and tagged with
  ChaCha20-Poly1305, nonce derived from (session, seq) and never reused
  (models encrypting over hypervisor-visible memory),
* ``csm``        byte-identical code path to plaintext, labeled separately:
  a protected shared region needs no cryptography.

Every message carries a (session, sequence) header; the receiver accepts
only the exact next sequence number, rejecting replays and reordering, and
in AEAD mode any corruption of the slot fails authentication.

Reported numbers: median one-way delivery latency (wall clock), throughput
over the whole run, and a CPU work proxy: per-thread CPU nanoseconds spent
in the marshal/unmarshal sections on both endpoints, polling and
preemption excluded.
"""

import csv
import os
import random
import statistics
import struct
import threading
import time
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .errors import AuthFailure, BadState, PayloadTooLarge, SeqMismatch

HEADER = struct.Struct("<QQ")   # session_id, seq
LENGTH = struct.Struct("<I")
TAG_SIZE = 16
COUNTER = struct.Struct("<Q")
_SENT_OFF = 0
_RECV_OFF = 8
_SLOT_OFF = 16

MODES = ("plaintext", "aead", "csm")


class Channel:
    """Depth-1 single-producer single-consumer channel over a shared buffer."""

    def __init__(self, mode: str, max_payload: int, seed: int = 0):
        if mode not in MODES:
            raise BadState(f"unknown mode {mode!r}")
        self.mode = mode
        self.max_payload = max_payload
        rng = random.Random(seed)
        self.session_id = rng.getrandbits(64)
        self.buf = bytearray(_SLOT_OFF + HEADER.size + LENGTH.size +
                             max_payload + TAG_SIZE)
        self._aead = None
        if mode == "aead":
            self._aead = ChaCha20Poly1305(rng.getrandbits(256).to_bytes(32, "little"))
        self.send_seq = 0        # last sequence sent
        self.recv_seq = 0        # last sequence accepted

    # Counter helpers; each counter has exactly one writer.

    def _load(self, off: int) -> int:
        return COUNTER.unpack_from(self.buf, off)[0]

    def _store(self, off: int, value: int) -> None:
        COUNTER.pack_into(self.buf, off, value)

    def _nonce(self, seq: int) -> bytes:
        return self.session_id.to_bytes(8, "little")[:4] + seq.to_bytes(8, "little")

    # ------------------------------------------------------------- transmit

    def wait_send_ready(self) -> None:
        """Poll until the previous message was acknowledged."""
        while self._load(_RECV_OFF) < self.send_seq:
            time.sleep(0)

    def produce(self, payload: bytes) -> None:
        """Marshal one message into the slot and publish it. The caller must
        have observed send-readiness; this is the timed work section."""
        if len(payload) > self.max_payload:
            raise PayloadTooLarge(f"{len(payload)} > {self.max_payload}")
        seq = self.send_seq + 1
        header = HEADER.pack(self.session_id, seq)
        body = payload
        if self._aead is not None:
            body = self._aead.encrypt(self._nonce(seq), payload, header)
        pos = _SLOT_OFF
        self.buf[pos:pos + HEADER.size] = header
        pos += HEADER.size
        LENGTH.pack_into(self.buf, pos, len(body))
        pos += LENGTH.size
        self.buf[pos:pos + len(body)] = body
        self.send_seq = seq
        self._store(_SENT_OFF, seq)

    def msg_send(self, payload: bytes) -> None:
        self.wait_send_ready()
        self.produce(payload)

    # -------------------------------------------------------------- receive

    def wait_recv_ready(self) -> None:
        while self._load(_SENT_OFF) <= self.recv_seq:
            time.sleep(0)

    def consume(self) -> bytes:
        """Unmarshal the published message; the timed work section.

        Sequence or authentication failures leave the received counter
        untouched, so the offending message is never acknowledged.
        """
        view = memoryview(self.buf)
        pos = _SLOT_OFF
        header = bytes(view[pos:pos + HEADER.size])
        session, seq = HEADER.unpack(header)
        pos += HEADER.size
        (blen,) = LENGTH.unpack_from(self.buf, pos)
        pos += LENGTH.size
        body = bytes(view[pos:pos + blen])
        if session != self.session_id or seq != self.recv_seq + 1:
            raise SeqMismatch(f"got session {session} seq {seq}, "
                              f"expected seq {self.recv_seq + 1}")
        if self._aead is not None:
            try:
                body = self._aead.decrypt(self._nonce(seq), body, header)
            except InvalidTag:
                raise AuthFailure("tag verification failed") from None
        self.recv_seq = seq
        self._store(_RECV_OFF, seq)
        return body

    def msg_recv(self) -> bytes:
        self.wait_recv_ready()
        return self.consume()


# ------------------------------------------------------------------ running

@dataclass
class BenchReport:
    mode: str
    size_bytes: int
    iters: int
    median_latency_ns: int
    throughput_bps: float
    cpu_ns_per_msg: int

    def csv_row(self) -> list:
        return [self.mode, self.size_bytes, self.iters,
                self.median_latency_ns, round(self.throughput_bps, 1),
                self.cpu_ns_per_msg]


CSV_COLUMNS = ["mode", "size_bytes", "iters", "median_latency_ns",
               "throughput_Bps", "cpu_ns_per_msg"]


def bench_run(mode: str, size: int, iters: int, seed: int = 0) -> BenchReport:
    """Deliver ``iters`` messages of ``size`` bytes and report medians.

    Latency is one-way delivery (send start to payload consumed); the CPU
    proxy sums both endpoints' work sections, excluding all polling.
    """
    if iters < 1:
        raise BadState("iters must be positive")
    channel = Channel(mode, max_payload=size, seed=seed)
    payload = random.Random(seed + 1).randbytes(size)
    send_start = [0] * (iters + 1)
    tx_work = [0] * (iters + 1)
    latency = [0] * (iters + 1)
    rx_work = [0] * (iters + 1)
    failures = []

    def sender():
        try:
            for i in range(1, iters + 1):
                channel.wait_send_ready()
                t0 = time.perf_counter_ns()
                send_start[i] = t0
                channel.produce(payload)
                tx_work[i] = time.perf_counter_ns() - t0
        except Exception as err:  # surfaced after join
            failures.append(err)

    t_wall0 = time.perf_counter_ns()
    tx = threading.Thread(target=sender, daemon=True)
    tx.start()
    for i in range(1, iters + 1):
        channel.wait_recv_ready()
        t0 = time.perf_counter_ns()
        got = channel.consume()
        t1 = time.perf_counter_ns()
        rx_work[i] = t1 - t0
        latency[i] = t1 - send_start[i]
        if len(got) != size:
            failures.append(BadState(f"message {i}: {len(got)} bytes"))
            break
    tx.join()
    t_wall1 = time.perf_counter_ns()
    if failures:
        raise failures[0]
    wall_s = (t_wall1 - t_wall0) / 1e9
    work = [tx_work[i] + rx_work[i] for i in range(1, iters + 1)]
    return BenchReport(
        mode=mode, size_bytes=size, iters=iters,
        median_latency_ns=int(statistics.median(latency[1:])),
        throughput_bps=size * iters / wall_s,
        cpu_ns_per_msg=int(statistics.median(work)))


def append_csv(path: str, reports: list) -> None:
    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.csv_row())
