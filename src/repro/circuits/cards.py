"""Typed analysis cards: the dot-command side of a SPICE deck.

A netlist is more than its element cards -- the ``.tran`` / ``.ac`` /
``.ic`` / ``.options`` dot-commands describe *what to do* with the
circuit.  :meth:`repro.circuits.netlist.Netlist.from_spice` parses them
into the containers below, and the netlist front door
(:func:`repro.engine.netlist_session.simulate_netlist`, the
``python -m repro --netlist`` CLI) executes them: ``.tran`` routes
through the cached :class:`~repro.engine.session.Simulator` session
(``run`` or windowed ``march``), ``.ac`` through
:func:`repro.analysis.frequency.frequency_response`, ``.ic`` becomes
the model's initial state, and ``.options`` selects the basis family,
solver method, term count, and window count.

Supported cards::

    .tran <tstep> <tstop> [tstart] [tmax] [uic]
    .ac  dec|oct|lin <n> <fstart> <fstop>
    .ic  v(<node>)=<value> ...
    .options [basis=<family>] [method=<name>] [m=<terms>]
             (method: a name of repro.core.dispatch.ROUTES)
             [windows=<k>] [backend=dense|sparse|auto]
             [reduce=auto|off] [mor_order=<q>]
             [memory=exact|soe] [memory_rtol=<tol>] ...

Unknown ``.options`` keys are retained verbatim in
:attr:`AnalysisSpec.extra_options` (real decks carry tolerance options
this engine does not need); unknown dot-commands are ignored by the
parser for SPICE-deck compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine.options import OPTION_ROWS, OptionRow
from ..errors import NetlistError

__all__ = ["TranCard", "AcCard", "AnalysisSpec", "OptionRow", "OPTION_ROWS"]

#: ``.ac`` sweep variations (points per decade / per octave / total).
AC_VARIATIONS = ("dec", "oct", "lin")


@dataclass(frozen=True)
class TranCard:
    """A ``.tran <tstep> <tstop> [tstart] [tmax] [uic]`` card.

    ``tstep`` is the printing/suggested time step and fixes the default
    basis-term count ``m = round(tstop / tstep)``; ``tstart`` and
    ``tmax`` are accepted for SPICE compatibility (the OPM engine
    always solves from ``t = 0`` at its own resolution).

    Examples
    --------
    >>> card = TranCard(tstep=1e-5, tstop=5e-3)
    >>> card.steps
    500
    """

    tstep: float
    tstop: float
    tstart: float = 0.0
    tmax: float | None = None
    uic: bool = False

    def __post_init__(self) -> None:
        if self.tstep <= 0.0:
            raise NetlistError(f".tran tstep must be positive, got {self.tstep:g}")
        if self.tstop <= 0.0:
            raise NetlistError(f".tran tstop must be positive, got {self.tstop:g}")
        if self.tstep > self.tstop:
            raise NetlistError(
                f".tran tstep ({self.tstep:g}) exceeds tstop ({self.tstop:g})"
            )
        if self.tstart < 0.0 or self.tstart >= self.tstop:
            raise NetlistError(
                f".tran tstart must lie in [0, tstop), got {self.tstart:g}"
            )

    @property
    def steps(self) -> int:
        """Default number of basis terms: ``round(tstop / tstep)``."""
        return max(int(round(self.tstop / self.tstep)), 1)


@dataclass(frozen=True)
class AcCard:
    """An ``.ac dec|oct|lin <n> <fstart> <fstop>`` card.

    ``dec``/``oct`` place ``n`` points per decade/octave on a log grid;
    ``lin`` places ``n`` points in total on a linear grid.  Frequencies
    are in hertz, as in SPICE.

    Examples
    --------
    >>> card = AcCard("dec", 2, 1.0, 100.0)
    >>> [float(round(f, 3)) for f in card.frequencies()]
    [1.0, 3.162, 10.0, 31.623, 100.0]
    """

    variation: str
    n: int
    f_start: float
    f_stop: float

    def __post_init__(self) -> None:
        if self.variation not in AC_VARIATIONS:
            raise NetlistError(
                f".ac variation must be one of {AC_VARIATIONS}, "
                f"got {self.variation!r}"
            )
        if self.n < 1:
            raise NetlistError(f".ac needs at least 1 point, got {self.n}")
        if self.f_start <= 0.0 or self.f_stop < self.f_start:
            raise NetlistError(
                f".ac needs 0 < fstart <= fstop, got "
                f"fstart={self.f_start:g}, fstop={self.f_stop:g}"
            )

    def frequencies(self) -> np.ndarray:
        """The sweep grid in hertz (endpoint included)."""
        if self.variation == "lin":
            return np.linspace(self.f_start, self.f_stop, self.n)
        base = 10.0 if self.variation == "dec" else 2.0
        spans = np.log(self.f_stop / self.f_start) / np.log(base)
        count = int(np.floor(self.n * spans + 1e-9)) + 1
        freqs = self.f_start * base ** (np.arange(count) / self.n)
        if freqs[-1] < self.f_stop * (1.0 - 1e-12):
            freqs = np.append(freqs, self.f_stop)
        return np.minimum(freqs, self.f_stop)

    def omegas(self) -> np.ndarray:
        """The sweep grid in angular frequency (rad/s)."""
        return 2.0 * np.pi * self.frequencies()


@dataclass
class AnalysisSpec:
    """Everything the dot-commands of one deck requested.

    Attributes
    ----------
    tran, ac:
        The transient / small-signal sweep cards (``None`` when the
        deck has none).
    ic:
        Initial node voltages from ``.ic v(node)=value`` entries.
    options:
        Engine-interpreted ``.options`` entries, keyed and typed by
        :data:`OPTION_ROWS`.  Each also reads as an attribute:
        ``spec.basis``, ``spec.m`` (``None`` when the deck is silent).
    extra_options:
        Unrecognised ``.options`` entries, retained verbatim.
    """

    tran: TranCard | None = None
    ac: AcCard | None = None
    ic: dict[str, float] = field(default_factory=dict)
    options: dict[str, object] = field(default_factory=dict)
    extra_options: dict[str, str] = field(default_factory=dict)

    def set_option(self, key: str, value: str) -> None:
        """Record one ``.options`` entry, typing the known keys."""
        key = key.lower()
        row = OPTION_ROWS.get(key)
        if row is None:
            self.extra_options[key] = value
        else:
            self.options[key] = row.parse(value)

    def __getattr__(self, name: str):
        if name in OPTION_ROWS:
            return self.options.get(name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def has_analyses(self) -> bool:
        """True when the deck requested at least one analysis."""
        return self.tran is not None or self.ac is not None

    def __repr__(self) -> str:
        parts = []
        if self.tran is not None:
            parts.append(f"tran={self.tran.tstop:g}s/{self.tran.steps}")
        if self.ac is not None:
            parts.append(
                f"ac={self.ac.variation} {self.ac.f_start:g}..{self.ac.f_stop:g}Hz"
            )
        if self.ic:
            parts.append(f"ic({len(self.ic)})")
        if self.options:
            parts.append(
                "options(" + ", ".join(f"{k}={v}" for k, v in self.options.items()) + ")"
            )
        return f"AnalysisSpec({', '.join(parts) or 'empty'})"
