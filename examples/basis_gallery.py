"""Basis gallery: the same circuit in five basis families (section I).

Solves one RC-ladder step response with block pulses, Walsh functions,
Haar wavelets (exact transforms of each other's span) and the Legendre
/ Chebyshev spectral families (integral-form OPM), then prints accuracy
per degree of freedom and the Walsh "trend extraction" the paper
mentions: keeping only low-sequency coefficients recovers the overall
waveform shape.

Every row is the same call, ``simulate_opm(system, u, basis)``: one
throwaway session per basis.  It closes with the basis-generic session
API: ``Simulator(system, grid, basis="chebyshev")`` binds a *spectral*
session whose warm calls reuse its cached pencil factorisations (one
per real eigenvalue or conjugate pair of the integration matrix) --
spectral accuracy at session-cache speed.

Run:  python examples/basis_gallery.py
"""

import numpy as np

from repro import (
    ChebyshevBasis,
    HaarBasis,
    LegendreBasis,
    Simulator,
    WalshBasis,
    simulate_opm,
)
from repro.circuits import Constant, assemble_mna, rc_ladder_netlist
from repro.io import Table


def main():
    nl = rc_ladder_netlist(6, r=1.0, c=1e-3, drive_waveform=Constant(1.0))
    system = assemble_mna(nl, outputs=["v6"])
    u = nl.input_function()
    t_end = 0.05

    reference = simulate_opm(system, u, (t_end, 8192))
    t = np.linspace(0.002, 0.048, 25)
    y_ref = reference.outputs_smooth(t)[0]

    table = Table(["Basis", "Terms", "Max error", "Wall time"])
    runs = {}

    bpf = simulate_opm(system, u, (t_end, 256))
    runs["block pulse"] = bpf
    table.add_row(
        ["Block pulse", 256,
         f"{np.max(np.abs(bpf.outputs_smooth(t)[0] - y_ref)):.2e}",
         f"{bpf.wall_time * 1e3:.2f} ms"]
    )

    walsh = simulate_opm(system, u, WalshBasis(t_end, 256))
    runs["walsh"] = walsh
    haar = simulate_opm(system, u, HaarBasis(t_end, 256))
    for label, res in [("Walsh (sequency)", walsh), ("Haar", haar)]:
        table.add_row(
            [label, 256,
             f"{np.max(np.abs(res.outputs(t)[0] - y_ref)):.2e}",
             f"{res.wall_time * 1e3:.2f} ms"]
        )

    for label, basis in [
        ("Legendre", LegendreBasis(t_end, 24)),
        ("Chebyshev", ChebyshevBasis(t_end, 24)),
    ]:
        res = simulate_opm(system, u, basis)
        table.add_row(
            [label, 24,
             f"{np.max(np.abs(res.outputs(t)[0] - y_ref)):.2e}",
             f"{res.wall_time * 1e3:.2f} ms"]
        )
    print(table.render())

    # Walsh trend extraction: truncate the sequency spectrum
    print("\nWalsh low-pass (the paper's 'overall trend' use case):")
    coeffs = walsh.output_coefficients[0]
    for keep in (4, 16, 256):
        truncated = coeffs.copy()
        truncated[keep:] = 0.0
        y_trunc = walsh.basis.synthesize(truncated, t)
        err = np.max(np.abs(y_trunc - y_ref))
        print(f"  keep {keep:3d}/256 sequency terms -> max deviation {err:.2e}")
    print("a handful of low-sequency terms already track the waveform trend.")

    # Basis-generic sessions: warm spectral calls reuse the cached LUs
    print("\nWarm Chebyshev session (24 coefficients, cached factorisations):")
    sim = Simulator(system, (t_end, 24), basis="chebyshev")
    sim.run(u)  # cold: builds the integral-form operator + LUs
    warm = sim.run(u)
    err = np.max(np.abs(warm.outputs(t)[0] - y_ref))
    print(
        f"  factorisations={sim.factorisations}, warm run "
        f"{warm.wall_time * 1e3:.2f} ms, max error {err:.2e}"
    )
    batch = sim.sweep([1.0, 0.5, 2.0])
    print(f"  swept {len(batch)} step amplitudes in one batched solve")


if __name__ == "__main__":
    main()
