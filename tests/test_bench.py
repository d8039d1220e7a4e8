import csv
import random
import struct

import pytest

from csmsim.bench import (
    CSV_COLUMNS,
    Channel,
    append_csv,
    bench_run,
)
from csmsim.errors import AuthFailure, PayloadTooLarge, SeqMismatch


def pump(channel, payloads):
    """Single-threaded ping-pong: depth-1 channel needs no concurrency."""
    out = []
    for p in payloads:
        channel.msg_send(p)
        out.append(channel.msg_recv())
    return out


@pytest.mark.parametrize("mode", ["plaintext", "csm", "aead"])
def test_round_trip_identical_sequences(mode):
    rng = random.Random(7)
    payloads = [rng.randbytes(rng.randint(0, 512)) for _ in range(32)]
    channel = Channel(mode, max_payload=512, seed=3)
    assert pump(channel, payloads) == payloads


def test_all_modes_deliver_the_same_sequence():
    rng = random.Random(11)
    payloads = [rng.randbytes(256) for _ in range(16)]
    delivered = {mode: pump(Channel(mode, max_payload=256, seed=5), payloads)
                 for mode in ("plaintext", "csm", "aead")}
    assert delivered["plaintext"] == delivered["csm"] == delivered["aead"]


def test_payload_too_large():
    channel = Channel("plaintext", max_payload=64)
    with pytest.raises(PayloadTooLarge):
        channel.msg_send(bytes(65))


def test_plaintext_slot_holds_header_then_payload_verbatim():
    channel = Channel("plaintext", max_payload=64, seed=2)
    payload = bytes(range(64))
    channel.msg_send(payload)
    slot = bytes(channel.buf[16:])
    header = slot[:16]
    session, seq = struct.unpack("<QQ", header)
    assert (session, seq) == (channel.session_id, 1)
    assert slot[16:20] == (64).to_bytes(4, "little")
    assert slot[20:20 + 64] == payload


def test_aead_detects_single_bit_corruption():
    channel = Channel("aead", max_payload=64, seed=1)
    channel.msg_send(b"protected payload")
    # Flip one ciphertext bit in the slot before the receiver looks.
    channel.buf[16 + 16 + 4 + 3] ^= 0x10
    before = channel.recv_seq
    with pytest.raises(AuthFailure):
        channel.msg_recv()
    # The corrupted message was never acknowledged.
    assert channel.recv_seq == before


def test_plaintext_does_not_detect_corruption():
    """The property that motivates protected sharing: an unprotected shared
    buffer delivers tampered bytes without complaint."""
    channel = Channel("plaintext", max_payload=64)
    channel.msg_send(b"unprotected payload")
    channel.buf[16 + 16 + 4 + 0] ^= 0xFF
    got = channel.msg_recv()
    assert got != b"unprotected payload"


def test_aead_header_is_authenticated():
    channel = Channel("aead", max_payload=64, seed=1)
    channel.msg_send(b"hello")
    channel.buf[16] ^= 0x01  # session id byte inside the header
    with pytest.raises(SeqMismatch):
        # Session mismatch is caught before decryption even starts.
        channel.msg_recv()


def test_replayed_sequence_rejected():
    channel = Channel("plaintext", max_payload=64)
    channel.msg_send(b"first")
    assert channel.msg_recv() == b"first"
    # Replay: republish the same slot (stale seq) without a new send.
    channel._store(0, 2)  # pretend a second message arrived
    with pytest.raises(SeqMismatch):
        channel.msg_recv()


def test_out_of_order_sequence_rejected():
    channel = Channel("plaintext", max_payload=64)
    channel.msg_send(b"first")
    assert channel.msg_recv() == b"first"
    channel.send_seq = 5  # skip ahead: receiver expects 2, sees 6
    channel.produce(b"sixth")
    with pytest.raises(SeqMismatch):
        channel.msg_recv()


@pytest.mark.parametrize("mode", ["plaintext", "csm", "aead"])
def test_bench_run_reports_sane_numbers(mode):
    report = bench_run(mode, size=1024, iters=64)
    assert report.mode == mode
    assert report.size_bytes == 1024
    assert report.iters == 64
    assert report.median_latency_ns > 0
    assert report.throughput_bps > 0
    assert report.cpu_ns_per_msg > 0


def test_csv_output(tmp_path):
    path = tmp_path / "bench.csv"
    reports = [bench_run("plaintext", 256, 16), bench_run("csm", 256, 16)]
    append_csv(str(path), reports)
    append_csv(str(path), [bench_run("aead", 256, 16)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert [r[0] for r in rows[1:]] == ["plaintext", "csm", "aead"]
    assert all(len(r) == len(CSV_COLUMNS) for r in rows[1:])
