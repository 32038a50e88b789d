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
             (method: 'opm' and the fractional zoo -- 'gl',
             'oustaloup', 'jacobi' -- or a one-shot baseline name;
             see repro.core.dispatch.SIMULATION_METHODS)
             [windows=<k>] [backend=dense|sparse|auto]
             [reduce=auto|off] [mor_order=<q>]
             [memory=exact|soe] [memory_rtol=<tol>] ...

Unknown ``.options`` keys are retained verbatim in
:attr:`AnalysisSpec.extra_options` (real decks carry tolerance options
this engine does not need); unknown dot-commands are ignored by the
parser for SPICE-deck compatibility.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..errors import NetlistError

__all__ = ["TranCard", "AcCard", "AnalysisSpec", "OptionRow", "OPTION_ROWS"]

#: ``.ac`` sweep variations (points per decade / per octave / total).
AC_VARIATIONS = ("dec", "oct", "lin")


def _basis_help() -> str:
    from ..engine.bundle import basis_names

    return (
        "basis family to solve in: "
        + ", ".join(n for n in basis_names() if n != "laguerre")
        + " (default: block-pulse; the Laguerre family needs a time "
        "scale and is library-API only)"
    )


def _method_help() -> str:
    from ..core.dispatch import SIMULATION_METHODS

    return (
        "solver method: " + ", ".join(SIMULATION_METHODS)
        + " (default: .options method, else opm; 'gl', 'oustaloup' and "
        "'jacobi' are the fractional method zoo -- alternative "
        "discretisations of the fractional operator solved through the "
        "cached-pencil engine; unknown names fail with a did-you-mean "
        "suggestion)"
    )


#: What the service daemon says of a setting it takes from cards only.
_CARD_ONLY = "the daemon takes it from the deck's .options card only"


@dataclass(frozen=True)
class OptionRow:
    """One ``.options`` setting, as every front door spells it.

    ``kind`` picks the parser: ``'count'`` (an integer >= 1), ``'rtol'``
    (a number in (0, 1)) or ``'name'`` (a lower-cased string).
    ``keyword`` is the library keyword and the CLI's ``--keyword`` flag
    (none when ``cli`` is off), with ``help`` (text, or a function
    building it from a name registry); ``client`` flags are forwarded
    by the ``client`` subcommand.  The daemon honours the field unless
    ``refusal`` gives its reason to refuse it.
    """

    name: str
    kind: str
    help: str | Callable[[], str] = ""
    keyword: str = ""
    cli: bool = True
    metavar: str | None = None
    choices: tuple[str, ...] | None = None
    client: bool = False
    refusal: str | None = None

    def __post_init__(self) -> None:
        if not self.keyword:
            object.__setattr__(self, "keyword", self.name)

    @property
    def flag(self) -> str | None:
        """The CLI flag (``None`` when the CLI has none)."""
        return "--" + self.keyword.replace("_", "-") if self.cli else None

    @property
    def type(self):
        """The CLI flag's argparse ``type``."""
        return {"count": int, "rtol": float}.get(self.kind)

    def help_text(self) -> str:
        """The CLI flag's help text."""
        return self.help() if callable(self.help) else self.help

    def parse(self, value, error=NetlistError, *, instances: bool = False):
        """Type and range-check one value, raising ``error`` with the
        same message at every door; a ``bool`` is never a number, and
        with ``instances`` a ``'name'`` setting passes a ready object
        (a basis, method or plan instance) through."""
        name = self.name
        if self.kind == "name":
            if isinstance(value, str):
                return value.lower()
            if instances:
                return value
            raise error(f"option {name!r} must be a name string, got {value!r}")
        count = self.kind == "count"
        try:
            if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
                raise ValueError
            parsed = int(value) if count else float(value)
            if count and not isinstance(value, str) and parsed != value:
                raise ValueError  # a fractional count
        except (ValueError, OverflowError):
            expected = "an integer" if count else "a number"
            raise error(f"option {name!r} expects {expected}, got {value!r}") from None
        if count and parsed < 1:
            raise error(f"option {name!r} must be >= 1, got {parsed}")
        if not count and not 0.0 < parsed < 1.0:
            raise error(f"option {name!r} must lie in (0, 1), got {parsed!r}")
        return parsed


#: The ``.options`` settings the engine interprets, in CLI flag order;
#: every front door (cards, CLI, ``client``, daemon, the resolver) reads
#: this table.  Anything else in a card lands in
#: :attr:`AnalysisSpec.extra_options`.
OPTION_ROWS = {
    row.name: row
    for row in (
        OptionRow(
            "m", "count", keyword="steps",
            help="number of basis terms: block pulses, or spectral "
            "coefficients for polynomial bases (default: .options m, else "
            "the .tran card's tstop/tstep, else 500)",
            refusal="send the term count in 'grid': [t_end, m]",
        ),
        OptionRow("basis", "name", _basis_help, metavar="FAMILY"),
        OptionRow("method", "name", _method_help, metavar="NAME"),
        OptionRow(
            "windows", "count",
            "march the horizon as this many windows of steps/windows block "
            "pulses each (default: .options windows, else 1: one "
            "single-window solve)",
            refusal=_CARD_ONLY,
        ),
        OptionRow("backend", "name", cli=False),
        OptionRow(
            "reduce", "name",
            "certified model-order reduction: 'auto' reduces large "
            "first-order pencils at session bind (skipping small or "
            "unsupported ones), 'off' disables a deck's .options reduce= "
            "card; reduced runs are certified against a residual error "
            "bound and fall back to the full model when it is exceeded",
            metavar="MODE", refusal=_CARD_ONLY,
        ),
        OptionRow(
            "mor_order", "count",
            "number of block moments for --reduce (implies reduction "
            "when --reduce is unset; default 12)",
            metavar="Q", refusal=_CARD_ONLY,
        ),
        OptionRow(
            "memory", "name",
            "fractional-memory mode: 'soe' compresses the power-law "
            "history tail into a certified sum-of-exponentials recurrence "
            "(linear-time long-horizon marching; falls back to exact when "
            "the fit cannot be certified), 'exact' disables a deck's "
            ".options memory= card (default: .options memory, else exact)",
            choices=("exact", "soe"), client=True,
        ),
        OptionRow(
            "memory_rtol", "rtol",
            "certified relative L1 bound the SOE kernel fit must meet "
            "(implies --memory soe when unset; default 1e-10)",
            metavar="TOL", client=True,
        ),
    )
}


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
