"""System-level bench: the Fig 1 SERDES link, end to end.

The paper's Fig 1 places the I/O interface inside a switch-fabric
SERDES: payload -> 8b/10b -> serializer -> output interface ->
backplane -> input interface -> CDR -> comma alignment -> decode.
This bench runs that whole stack and asserts the end-to-end contract:
error-free payload transport at 10 Gb/s over a realistic channel, CDR
locked, recovered jitter bounded.
"""

import numpy as np
import pytest

from conftest import run_once
from repro.channel import BackplaneChannel
from repro.core import build_input_interface, build_output_interface
from repro.link import run_framed_link
from repro.reporting import format_table

PAYLOAD = bytes(range(128))


def full_path(length_m, equalizer_v1=0.6):
    tx = build_output_interface()
    rx = build_input_interface(equalizer_control_voltage=equalizer_v1)
    channel = BackplaneChannel(length_m)

    def path(wave):
        return rx.process(channel.process(tx.process(wave)))

    return path


def test_full_serdes_link(benchmark, save_report):
    report = run_once(
        benchmark,
        lambda: run_framed_link(PAYLOAD, full_path(0.3),
                                samples_per_bit=16),
    )
    save_report("serdes_full_link", format_table([{
        "payload bytes": len(PAYLOAD),
        "bits recovered": report.bits_recovered,
        "CDR locked": report.cdr_locked,
        "recovered jitter (mUI)": report.recovered_jitter_ui * 1e3,
        "byte errors": report.byte_errors,
        "error free": report.error_free,
    }]))
    assert report.cdr_locked
    assert report.error_free
    assert report.byte_errors == 0
    assert report.recovered_jitter_ui < 0.1


def test_serdes_link_vs_channel_length(benchmark, save_report):
    def sweep():
        rows = []
        for length in (0.1, 0.3, 0.5):
            report = run_framed_link(bytes(range(64)), full_path(length),
                                     samples_per_bit=16)
            rows.append({
                "length (m)": length,
                "locked": report.cdr_locked,
                "byte errors": report.byte_errors,
                "error free": report.error_free,
            })
        return rows

    rows = run_once(benchmark, sweep)
    save_report("serdes_length_sweep", format_table(rows))
    # The conditioned link transports payloads over every tested length.
    assert all(row["error free"] for row in rows)


def test_8b10b_guarantees_cdr_food(benchmark, save_report):
    """The framing layer's purpose: bounded run length keeps transition
    density high enough for the bang-bang loop."""
    from repro.serdes import encode_bytes

    def run():
        bits = encode_bytes(b"\x00" * 200)  # worst-case payload
        transitions = int(np.sum(np.abs(np.diff(bits))))
        longest = 1
        current = 1
        for a, b in zip(bits, bits[1:]):
            current = current + 1 if a == b else 1
            longest = max(longest, current)
        return len(bits), transitions, longest

    n_bits, transitions, longest = run_once(benchmark, run)
    density = transitions / n_bits
    save_report("serdes_transition_density", format_table([{
        "bits": n_bits,
        "transition density": density,
        "max run length": longest,
    }]))
    assert longest <= 5
    assert density == pytest.approx(0.5, abs=0.2)