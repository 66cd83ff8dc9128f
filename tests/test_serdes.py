"""8b/10b coding and the framed serializer/deserializer link."""

import numpy as np
import pytest

from repro.link import run_framed_link
from repro.serdes import (
    CodingError,
    Decoder8b10b,
    Deserializer,
    Encoder8b10b,
    Serializer,
    align_to_comma,
    encode_bytes,
)
from repro.signals import WaveformBatch, add_awgn
from serial_oracles import run_link


def max_run_length(bits):
    best = current = 1
    for a, b in zip(bits, bits[1:]):
        current = current + 1 if a == b else 1
        best = max(best, current)
    return best


# -- 8b/10b -----------------------------------------------------------------

def test_all_bytes_roundtrip_both_disparities():
    decoder = Decoder8b10b()
    for value in range(256):
        for rd in (-1, 1):
            encoder = Encoder8b10b()
            encoder.running_disparity = rd
            bits = encoder.encode_symbol(value)
            assert len(bits) == 10
            decoded, is_control = decoder.decode_symbol(bits)
            assert decoded == value
            assert not is_control


def test_comma_roundtrip():
    decoder = Decoder8b10b()
    for rd in (-1, 1):
        encoder = Encoder8b10b()
        encoder.running_disparity = rd
        bits = encoder.encode_symbol(0xBC, control=True)
        decoded, is_control = decoder.decode_symbol(bits)
        assert decoded == 0xBC
        assert is_control


def test_stream_roundtrip_random_payload():
    rng = np.random.default_rng(7)
    payload = bytes(rng.integers(0, 256, 300).tolist())
    assert Decoder8b10b().decode(encode_bytes(payload)) == payload


def test_run_length_bounded():
    # The code's reason to exist: max run of 5 even for worst payloads.
    for payload in (b"\x00" * 64, b"\xff" * 64, bytes(range(256))):
        bits = encode_bytes(payload)
        assert max_run_length(bits.tolist()) <= 5


def test_dc_balance():
    rng = np.random.default_rng(3)
    payload = bytes(rng.integers(0, 256, 500).tolist())
    bits = encode_bytes(payload)
    assert abs(float(bits.mean()) - 0.5) < 0.01
    disparity = np.cumsum(2 * bits.astype(int) - 1)
    assert np.max(np.abs(disparity)) <= 6


def test_invalid_group_detected():
    decoder = Decoder8b10b()
    with pytest.raises(CodingError):
        decoder.decode_symbol(np.ones(10, dtype=np.int8))  # run of 10


def test_encoder_validation():
    encoder = Encoder8b10b()
    with pytest.raises(CodingError):
        encoder.encode_symbol(300)
    with pytest.raises(CodingError):
        encoder.encode_symbol(0x00, control=True)  # only K28.5


def test_decoder_validation():
    with pytest.raises(CodingError):
        Decoder8b10b().decode_symbol(np.zeros(8, dtype=np.int8))
    with pytest.raises(CodingError):
        Decoder8b10b().decode(np.zeros(15, dtype=np.int8))


# -- alignment --------------------------------------------------------------

def test_comma_found_at_any_offset():
    bits = encode_bytes(b"\x11\x22\x33", prepend_commas=1)
    for shift in (0, 3, 7):
        padded = np.concatenate([np.zeros(shift, dtype=np.int8), bits])
        offset = align_to_comma(padded)
        assert offset == shift


def test_no_comma_returns_none():
    assert align_to_comma(np.zeros(50, dtype=np.int8)) is None
    assert align_to_comma(np.zeros(50, dtype=np.int8), last=True) is None
    assert align_to_comma(np.zeros(5, dtype=np.int8)) is None


def test_align_to_comma_first_vs_last():
    # Two comma bursts separated by data: first/last must land on the
    # first symbol of each respective burst.
    encoder = Encoder8b10b()
    first_burst = encoder.encode(b"\x11\x22", prepend_commas=2)
    second = encoder.encode_symbol(0xBC, control=True)
    stream = np.concatenate([np.zeros(7, dtype=np.int8), first_burst,
                             second, np.ones(4, dtype=np.int8)])
    assert align_to_comma(stream) == 7
    assert align_to_comma(stream, last=True) == 7 + len(first_burst)


def test_deserializer_aligns_and_decodes():
    payload = b"hello, backplane"
    bits = encode_bytes(payload, prepend_commas=3)
    # Simulate unknown CDR latency: prepend garbage bits.
    stream = np.concatenate([np.array([0, 1, 0, 1, 1], dtype=np.int8),
                             bits])
    assert Deserializer().deserialize(stream) == payload


def test_deserializer_both_comma_modes_on_clean_preamble():
    # With a single preamble burst the two alignment strategies agree:
    # burst-walk from the first comma and global last comma land on the
    # same symbol boundary.
    payload = b"comma modes"
    bits = encode_bytes(payload, prepend_commas=4)
    stream = np.concatenate([np.array([1, 0, 1], dtype=np.int8), bits])
    assert Deserializer().deserialize(stream) == payload
    assert Deserializer(use_last_comma=True).deserialize(stream) == payload


def test_deserializer_last_comma_mode_skips_mangled_preamble():
    # Corrupt three consecutive preamble symbols — more than the
    # burst-walk's 3-group lookahead tolerates — so the default mode
    # stops inside the preamble while the last-comma mode still lands
    # on the final comma and recovers the payload.
    payload = b"\x42\x43\x44\x45"
    bits = encode_bytes(payload, prepend_commas=12).copy()
    bits[30:60] = 0  # symbols 3, 4, 5 of the burst
    assert Deserializer(use_last_comma=True).deserialize(bits) == payload
    assert Deserializer().deserialize(bits) != payload


def test_deserializer_without_comma_raises():
    with pytest.raises(CodingError):
        Deserializer().deserialize(np.zeros(100, dtype=np.int8))
    with pytest.raises(CodingError):
        Deserializer(use_last_comma=True).deserialize(
            np.zeros(100, dtype=np.int8))


# -- full framed link ---------------------------------------------------------

def test_serializer_waveform_properties():
    serializer = Serializer(bit_rate=10e9, samples_per_bit=16,
                            amplitude=0.25)
    wave = serializer.serialize(b"\xaa\x55")
    assert wave.sample_rate == pytest.approx(160e9)
    assert wave.peak_to_peak() == pytest.approx(0.25, rel=0.05)
    assert serializer.line_rate_overhead == pytest.approx(1.25)
    with pytest.raises(ValueError):
        serializer.serialize(b"")


def test_link_error_free_over_ideal_path():
    report = run_framed_link(b"0123456789abcdef" * 4, path=lambda w: w)
    assert report.cdr_locked
    assert report.error_free
    assert report.byte_errors == 0


def test_link_error_free_through_receiver_and_channel():
    from repro.channel import BackplaneChannel
    from repro.core import build_input_interface

    rx = build_input_interface(equalizer_control_voltage=0.6)
    channel = BackplaneChannel(0.3)

    report = run_framed_link(bytes(range(100)),
                             path=lambda w: rx.process(channel.process(w)))
    assert report.cdr_locked
    assert report.error_free
    assert report.recovered_jitter_ui < 0.1


def test_link_fails_gracefully_when_eye_closed():
    from repro.channel import BackplaneChannel

    # A destroyed channel: the CDR may lock onto garbage but the
    # decoder's error detection reports the payload as corrupt.
    brutal = BackplaneChannel(1.5)
    report = run_framed_link(bytes(range(60)), path=brutal.process)
    assert not report.error_free


def test_link_last_comma_mode_end_to_end():
    report = run_framed_link(b"last comma framing", path=lambda w: w,
                             use_last_comma=True)
    assert report.cdr_locked
    assert report.error_free
    assert report.cdr_slips == 0


# -- batched framed link ------------------------------------------------------

def test_link_batch_rows_match_serial_run_link():
    payload = b"0123456789abcdef" * 2
    seeds = [1, 2, 3, 4]
    rms = 0.01
    batch_report = run_framed_link(
        payload,
        path=lambda w: WaveformBatch.with_noise_seeds(w, rms, seeds),
        training_commas=24, training_bytes=4,
    )
    assert batch_report.n_scenarios == len(seeds)
    for seed, from_batch in zip(seeds, batch_report):
        reference = run_link(
            payload,
            analog_path=lambda w, seed=seed: add_awgn(w, rms, seed=seed),
            training_commas=24, training_bytes=4,
        )
        assert from_batch.payload_received == reference.payload_received
        assert from_batch.cdr_locked == reference.cdr_locked
        assert from_batch.cdr_slips == reference.cdr_slips
        assert from_batch.recovered_jitter_ui == \
            reference.recovered_jitter_ui
    assert batch_report.frame_error_rate() == 0.0
    assert batch_report.lock_yield() == 1.0


def test_link_batch_through_batch_transparent_receiver():
    from repro.core import build_input_interface

    rx = build_input_interface(equalizer_control_voltage=0.6)
    report = run_framed_link(
        bytes(range(40)),
        path=lambda w: rx.process(
            WaveformBatch.stack([w * 0.04] * 3)),
        training_commas=24, training_bytes=4,
    )
    assert report.n_scenarios == 3
    assert report.lock_yield() == 1.0
    assert report.frame_error_rate() == 0.0
    assert np.all(report.slips() == 0)


def test_framed_link_dispatches_single_waveform_and_rejects_junk():
    report = run_framed_link(b"single row", path=lambda w: w)
    assert report.error_free                  # waveform path: LinkReport
    with pytest.raises(TypeError):
        run_framed_link(b"junk", path=lambda w: w.data)
