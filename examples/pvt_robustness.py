#!/usr/bin/env python
"""PVT robustness: the interface across temperature and supply corners.

The paper's answer to PVT is the beta-multiplier reference: "the
band-gap voltage reference circuit can maintain the operation over a
wide temperature range.  It can overcome the supply voltage and process
variation to provide a stable reference voltage for the tail current."

The corner scan is a declarative sweep: (temperature, VDD) are
*structural* axes — the interface is rebuilt at each corner with its
tail currents re-derived from the BMVR and its devices evaluated at
temperature — while the input amplitude is a *batchable* axis, so every
drive level rides through each corner's receiver as one
``WaveformBatch`` pass.  The report combines analytic metrics (DC gain,
bandwidth) with waveform-level eye measurements per corner, showing the
design stays inside its operating envelope from -40 to 125 C and
1.6 to 2.0 V.

Run:  PYTHONPATH=src python examples/pvt_robustness.py
"""

import dataclasses

from repro import build_input_interface
from repro._units import celsius_to_kelvin
from repro.analysis import measure_eye_batch
from repro.core import BetaMultiplierReference
from repro.reporting import format_table
from repro.signals import bits_to_nrz, prbs7
from repro.sweep import ScenarioGrid, SweepAxis, SweepRunner

BIT_RATE = 10e9


def interface_at_corner(temperature_c, vdd):
    """The input interface re-biased at a PVT corner."""
    bmvr = BetaMultiplierReference()
    t_k = celsius_to_kelvin(temperature_c)
    rx = build_input_interface()
    la = rx.limiting_amplifier

    def rebias_buffer(buffer):
        tail = bmvr.tail_current_for(buffer.tail_current, t_k, vdd)
        pair = buffer.input_pair.at_temperature(t_k)
        pair = dataclasses.replace(
            pair, drain_current=tail / 2.0
        )
        return dataclasses.replace(buffer, input_pair=pair,
                                   tail_current=tail)

    def rebias_stage(stage):
        tail = bmvr.tail_current_for(stage.tail_current, t_k, vdd)
        pair = stage.input_pair.at_temperature(t_k)
        pair = dataclasses.replace(pair, drain_current=tail / 2.0)
        return dataclasses.replace(stage, input_pair=pair,
                                   tail_current=tail)

    la = dataclasses.replace(
        la,
        input_buffer=rebias_buffer(la.input_buffer),
        gain_stages=[rebias_stage(s) for s in la.gain_stages],
        output_buffer=rebias_buffer(la.output_buffer),
    )
    return dataclasses.replace(rx, limiting_amplifier=la)


def main() -> None:
    corners = [(-40, 1.6), (-40, 2.0), (27, 1.8), (125, 1.6), (125, 2.0)]
    # (T, VDD) pairs are one structural axis (the set is not a full
    # product: hot-slow and cold-fast corners bound the envelope).
    grid = ScenarioGrid([
        SweepAxis("corner", tuple(corners), structural=True),
        SweepAxis("amplitude", (0.004, 0.05)),
    ])
    interfaces = {}

    def build(params):
        rx = interface_at_corner(*params["corner"])
        interfaces[params["corner"]] = rx
        return rx

    runner = SweepRunner(
        grid,
        stimulus=lambda params: bits_to_nrz(
            prbs7(140), BIT_RATE, amplitude=params["amplitude"],
            samples_per_bit=16),
        build=build,
        measure=lambda batch, _:
            measure_eye_batch(batch, BIT_RATE, skip_ui=16),
    )
    result = runner.run()
    heights = result.values(lambda m: m.eye_height)  # (n_corners, n_amps)

    rows = []
    for i, (temperature_c, vdd) in enumerate(corners):
        rx = interfaces[(temperature_c, vdd)]
        rows.append({
            "T (C)": temperature_c,
            "VDD (V)": vdd,
            "DC gain (dB)": rx.dc_gain_db(),
            "BW (GHz)": rx.bandwidth_3db() / 1e9,
            "LA swing (mV)": rx.limiting_amplifier.output_swing * 1e3,
            "eye @4mV (mV)": heights[i, 0] * 1e3,
            "eye @50mV (mV)": heights[i, 1] * 1e3,
        })
    print(format_table(rows))

    gains = [row["DC gain (dB)"] for row in rows]
    bws = [row["BW (GHz)"] for row in rows]
    print(f"\ngain spread : {max(gains) - min(gains):.1f} dB across corners")
    print(f"BW range    : {min(bws):.1f} .. {max(bws):.1f} GHz")
    nominal = [row for row in rows if row["T (C)"] == 27][0]
    if min(bws) > 0.6 * nominal["BW (GHz)"]:
        print("the BMVR-biased interface stays within its operating "
              "envelope at every corner")
    if all(row["eye @4mV (mV)"] > 0 for row in rows):
        print("the 4 mV sensitivity eye stays open at every corner")


if __name__ == "__main__":
    main()
