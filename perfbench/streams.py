"""Seeded input generators: everything a workload feeds the program.

Each generator derives its own independent random stream from the
workload seed, so the same seed always yields the same decks, drive
scales, request stream and Monte-Carlo corners, and different seeds
yield different ones.  The program under test only ever receives the
generated inputs.
"""

from __future__ import annotations

import numpy as np

from harness import ROOT

#: Seed held out for confirming performance claims; never used while
#: tuning a change.
HELD_OUT_SEED = 20120312

EXAMPLE_DECKS = (
    "coupled_inductors",
    "cpe_cell",
    "filter_bank",
    "rc_lowpass",
    "rlc_ladder",
    "two_stage_pair",
    "vccs_amp",
)


def rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator for one named stream of one workload seed."""
    tag = int.from_bytes(stream.encode(), "little") % (2**63)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def example_path(name: str):
    return ROOT / "examples" / f"{name}.cir"


def scaled_input(u, s: float):
    """Drive ``u`` scaled by ``s``; scale 1 is ``u`` itself, as the daemon has it."""
    if s == 1.0:
        return u

    def drive(t, _u=u, _s=s):
        return _s * np.asarray(_u(t))

    return drive


# ----------------------------------------------------------------------
# cold-deck
# ----------------------------------------------------------------------
GENERATED_SECTIONS = 280
GENERATED_M = 400


def generated_deck(seed: int) -> str:
    """A 280-section RC ladder of ``.subckt`` instances, block pulse m=400.

    Each section is a two-pole RC (an internal node plus its output
    node) with its own seeded ``r``/``c`` parameters, so the parser's
    hierarchy flattening and parameter substitution do real work; the
    CLI writes every node (561 columns) to CSV.
    """
    g = rng(seed, "cold-deck/generated")
    r = 1e3 * g.uniform(0.8, 1.2, GENERATED_SECTIONS)
    c = 1e-9 * g.uniform(0.8, 1.2, GENERATED_SECTIONS)
    freq = float(g.uniform(1.5e3, 3e3))
    lines = [
        "* generated RC ladder: .subckt sections, every node to CSV",
        ".subckt rcsec in out r=1k c=1n",
        "R1 in mid {r}",
        "C1 mid 0 {c}",
        "R2 mid out {r}",
        "C2 out 0 {c}",
        ".ends",
        f"I1 0 n0 SIN(0 1m {freq:.6g})",
    ]
    for i in range(GENERATED_SECTIONS):
        lines.append(f"X{i} n{i} n{i + 1} rcsec r={r[i]:.6g} c={c[i]:.6g}")
    lines.append(f"Rload n{GENERATED_SECTIONS} 0 1k")
    lines.append(f".tran {1e-3 / GENERATED_M:g} 1m")
    lines.append(".end")
    return "\n".join(lines) + "\n"


#: The generated deck runs this many times per cycle: at 2 of 9 ops
#: (22 %) the p90 lies inside its class, the p50 inside the examples'.
GENERATED_PER_CYCLE = 2


def deck_cycle(seed: int) -> list[str]:
    """Seeded order of one cold-deck cycle: 7 examples + the generated deck."""
    names = list(EXAMPLE_DECKS) + ["generated"] * GENERATED_PER_CYCLE
    order = rng(seed, "cold-deck/order").permutation(len(names))
    return [names[i] for i in order]


# ----------------------------------------------------------------------
# warm-session
# ----------------------------------------------------------------------
#: Op classes of one warm-session cycle and their counts.  Ranked by
#: latency (cpe run < rlc run < rlc sweep < grid march), the classes
#: cover 0-30 %, 30-70 %, 70-96.7 % and 96.7-100 % of the ops, so the
#: p50 sits inside the rlc-run class and the p90 inside the sweep
#: class, each >= 5 % of the op count from a class boundary.
WARM_CYCLE = (("cpe_run", 9), ("rlc_run", 12), ("rlc_sweep", 8), ("grid_march", 1))
SWEEP_INPUTS = 8


def warm_cycles(seed: int):
    """Endless seeded cycles, each a list of ``(op class, drive scales)``."""
    g = rng(seed, "warm-session/ops")
    base = [name for name, count in WARM_CYCLE for _ in range(count)]
    while True:
        cycle = []
        for k in g.permutation(len(base)):
            name = base[k]
            n = SWEEP_INPUTS if name == "rlc_sweep" else 1
            cycle.append((name, tuple(float(s) for s in g.uniform(0.5, 2.0, n))))
        yield cycle


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
SERVICE_PERIOD = 24
CHURN_VARIANTS = 16
CHEB_GRID = [1e-3, 24]
SWEEP_SCALES = 4

#: Slot kinds of one period and their counts (sum = SERVICE_PERIOD).
SERVICE_SLOTS = (
    ("cheb_main", 14),
    ("cheb_main_sweep", 2),
    ("cheb_mid", 3),
    ("cheb_small", 3),
    ("full_waveform", 1),
    ("churn", 1),
)


def ladder_deck(sections: int, r: float, c: float, freq: float, m: int = 400) -> str:
    """RC-ladder deck: ``sections`` states, SIN current drive, ``m`` steps."""
    lines = ["* RC ladder", f"I1 0 n1 SIN(0 1m {freq:.6g})"]
    for i in range(1, sections + 1):
        tail = f"n{i + 1}" if i < sections else "0"
        lines.append(f"R{i} n{i} {tail} {r:.6g}")
        lines.append(f"C{i} n{i} 0 {c:.6g}")
    lines.append(f".tran {1e-3 / m:g} 1m")
    return "\n".join(lines) + "\n"


def service_decks(seed: int) -> dict:
    """The three Chebyshev ladders plus the 16 churn variants."""
    g = rng(seed, "service-mix/decks")

    def values():
        return (
            1e3 * float(g.uniform(0.9, 1.1)),
            1e-6 * float(g.uniform(0.9, 1.1)),
            float(g.uniform(1.5e3, 2.5e3)),
        )

    decks = {
        "main": ladder_deck(280, *values()),
        "mid": ladder_deck(140, *values()),
        "small": ladder_deck(70, *values()),
    }
    decks["churn"] = [ladder_deck(70, *values()) for _ in range(CHURN_VARIANTS)]
    return decks


def service_stream(seed: int, total: int) -> list[dict]:
    """``total`` requests of the seeded 24-slot periodic pattern.

    Each item is ``{"slot": k, "kind": ..., "request": {...}}``; the
    request dict is exactly what goes on the wire.
    """
    decks = service_decks(seed)
    g = rng(seed, "service-mix/stream")
    pattern = [kind for kind, count in SERVICE_SLOTS for _ in range(count)]
    pattern = [pattern[k] for k in g.permutation(len(pattern))]
    churn_order = g.permutation(CHURN_VARIANTS)
    stream = []
    for i in range(total):
        period, slot = divmod(i, SERVICE_PERIOD)
        kind = pattern[slot]
        cheb = {"grid": CHEB_GRID, "basis": "chebyshev", "outputs": ["n1"], "samples": 8}
        scale = float(g.uniform(0.5, 2.0))
        if kind == "cheb_main":
            request = dict(cheb, netlist=decks["main"], scale=scale)
        elif kind == "cheb_main_sweep":
            scales = [float(s) for s in g.uniform(0.5, 2.0, SWEEP_SCALES)]
            request = dict(cheb, netlist=decks["main"], scales=scales)
        elif kind == "cheb_mid":
            request = dict(cheb, netlist=decks["mid"], scale=scale)
        elif kind == "cheb_small":
            request = dict(cheb, netlist=decks["small"], scale=scale)
        elif kind == "full_waveform" and period % 2 == 0:
            fmt = "json" if period % 4 == 0 else "csv"
            request = {"netlist": decks["main"], "scale": scale, "format": fmt}
        elif kind == "full_waveform":  # odd periods: a plain single instead
            kind = "cheb_main"
            request = dict(cheb, netlist=decks["main"], scale=scale)
        else:
            variant = int(churn_order[period % CHURN_VARIANTS])
            request = dict(cheb, netlist=decks["churn"][variant], scale=scale)
        stream.append({"slot": slot, "kind": kind, "request": request})
    return stream


def verify_periods(seed: int, n_periods: int) -> list[int]:
    """For each slot, the (seeded) period whose response is verified."""
    g = rng(seed, "service-mix/verify")
    return [int(p) for p in g.integers(0, max(1, n_periods), SERVICE_PERIOD)]


# ----------------------------------------------------------------------
# corner-sweep
# ----------------------------------------------------------------------
CORNER_MEMBERS = 96
CORNER_GRID = (1e-9, 512)
CORNER_TOLERANCE = 0.2
CORNER_ENSEMBLES = 2


def corner_seeds(seed: int) -> list[int]:
    """Seeds of the Monte-Carlo ensembles the corner-sweep ops cycle over."""
    g = rng(seed, "corner-sweep/ensembles")
    return [int(s) for s in g.integers(1, 2**31 - 1, CORNER_ENSEMBLES)]


def grid_load_seed(seed: int) -> int:
    """Seed of the power grid's load pattern."""
    return int(rng(seed, "power-grid/loads").integers(1, 2**31 - 1))
