"""Monte-Carlo tolerance analysis of the power grid, across all cores.

Draws seeded variations of the 108-state two-layer power grid (every
mesh resistance within +/-20% of nominal, all members filled from one
MNA stamping pass), solves the whole ensemble through the parallel
executor — one pencil factorisation per member, the coefficients
returned from the worker processes via shared memory — and reports the
spread of the worst-case IR drop.  A second seed then runs on the same worker pool.
The script checks its own results: the parallel coefficients must
equal a serial run bit for bit, and every member must factorise once.

Run::

    OMP_NUM_THREADS=1 python examples/monte_carlo_ensemble.py
"""

from __future__ import annotations

import numpy as np

from repro import Ensemble, ParallelExecutor
from repro.circuits import power_grid
from repro.io import Table


def main() -> None:
    netlist = power_grid(6, 6, nz=2)  # 108-state MNA model
    center = "n1_2_2"  # bottom-layer center node: worst-case IR drop

    params = {el.name: 0.2 for el in netlist.resistors}

    def corners(seed: int) -> Ensemble:
        return Ensemble.variations(
            netlist, params, mode="monte-carlo", n=32, seed=seed, outputs=[center]
        )

    grid = (1e-9, 256)
    ensemble = corners(2012)
    # jobs defaults to all cores; the pool lives until the block ends
    with ParallelExecutor("process") as executor:
        result = executor.run(ensemble, grid)
        second = executor.run(corners(2013), grid)  # same workers, no re-spawn
        jobs = executor.jobs

    serial = ParallelExecutor("serial", jobs=jobs).run(ensemble, grid)
    assert np.array_equal(result.coefficients, serial.coefficients)
    assert result.info["factorisations"] == len(result) == 32
    assert len(second) == 32

    info = result.info
    print(
        f"solved {len(result)} members in {result.wall_time * 1e3:.1f} ms "
        f"({info['jobs']} {info['executor']} workers, "
        f"{info['factorisations']} factorisations, "
        f"{info['shm_bytes'] / 1e6:.1f} MB of coefficients returned via "
        "shared memory); "
        f"a second seed on the same pool took {second.wall_time * 1e3:.1f} ms"
    )

    # peak |v(center)| per member: the quantity a tolerance analysis bounds
    t = result[0].sample_times()
    waveforms = result.outputs(t)  # (members, outputs, samples)
    assert np.array_equal(waveforms[3], result[3].outputs(t))
    peaks = np.max(np.abs(waveforms), axis=2)[:, 0]
    assert np.all(np.isfinite(peaks)) and np.all(peaks > 0.0)

    table = Table(["statistic", f"peak |v({center})|"])
    for name, value in [
        ("min", peaks.min()),
        ("mean", peaks.mean()),
        ("max", peaks.max()),
        ("spread (max/min)", peaks.max() / peaks.min()),
    ]:
        table.add_row([name, f"{value:.4g}"])
    print(table.render())

    worst = int(np.argmax(peaks))
    print(f"\nworst corner: member {worst} ({result.labels[worst][:60]}...)")


if __name__ == "__main__":
    main()
