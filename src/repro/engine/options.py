"""Solve settings: the deck-option table and the one resolver behind
every front door.

:data:`OPTION_ROWS` holds one :class:`OptionRow` per ``.options``
setting (its parser, library keyword, CLI flag, and whether the service
daemon honours it); :func:`resolve_deck_options` applies the "explicit
argument > ``.options``/``.tran`` card > default" rule once, checks the
result against the method's :data:`~repro.core.dispatch.ROUTES` row,
and returns the :class:`DeckOptions` every door solves with.  Nothing
here imports the circuits layer, so :func:`repro.core.dispatch.simulate`
resolves a plain model's settings through the same code as a deck's.

>>> resolve_deck_options(None, t_end=1.0, steps=8, method="gl").route.name
'gl'
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass, replace

from ..core.dispatch import ROUTES
from ..errors import NetlistError, OptionError
from ..fractional.methods import FRACTIONAL_METHODS, validate_method_name
from ..fractional.soe import resolve_memory
from .reduction import combine_reduce_options
from .session import Simulator

__all__ = ["OptionRow", "OPTION_ROWS", "DeckOptions", "resolve_deck_options"]


def _basis_help() -> str:
    from .bundle import basis_names

    return (
        "basis family to solve in: "
        + ", ".join(n for n in basis_names() if n != "laguerre")
        + " (default: block-pulse; the Laguerre family needs a time "
        "scale and is library-API only)"
    )


def _method_help() -> str:
    default, *_ = ROUTES
    return (
        "solver method: " + ", ".join(ROUTES)
        + f" (default: .options method, else {default}; unknown names fail "
        "with a did-you-mean suggestion)"
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
#: :attr:`~repro.circuits.cards.AnalysisSpec.extra_options`.
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
class DeckOptions:
    """The resolved settings of one deck solve.

    Built only by :func:`resolve_deck_options`, which applies the
    "explicit argument > ``.options``/``.tran`` card > default" rule
    once for every front door (library, CLI, service daemon).
    ``memory`` is the resolved fractional-memory plan: ``None`` (exact)
    or an :class:`~repro.fractional.soe.SoePlan` carrying the deck's
    ``memory_rtol``.
    """

    basis: object
    method: object
    backend: str
    reduce: object
    memory: object
    windows: int
    t_end: float | None
    steps: int | None

    @property
    def route(self):
        """The :data:`~repro.core.dispatch.ROUTES` row of :attr:`method`
        (a method instance routes by its name)."""
        return ROUTES[getattr(self.method, "name", self.method)]

    def grid(self) -> tuple[float, int]:
        """The transient grid ``(t_end, steps)``; raises when unknown."""
        if self.t_end is None:
            raise NetlistError(
                "no transient horizon: the deck has no .tran card; pass "
                "t_end= (or grid=(t_end, m)) explicitly"
            )
        if self.steps is None:
            raise OptionError(
                f"method {self.route.name!r} requires steps (the term count): "
                "pass steps=, or give the deck a .tran card"
            )
        return self.t_end, self.steps

    def session(self, system, grid=None) -> Simulator:
        """A warm :class:`Simulator` with these settings on ``grid``
        (default: :meth:`grid`); a one-shot route refuses."""
        route = self.route
        route.require("session")
        return Simulator(
            system,
            grid if grid is not None else self.grid(),
            basis=self.basis,
            backend=self.backend,
            method=self.method if route.name in FRACTIONAL_METHODS else None,
            reduce=self.reduce,
            memory=self.memory,
        )


#: The deck-option rows by library keyword (``steps`` is the ``m`` row).
_ROWS_BY_KEYWORD = {row.keyword: row for row in OPTION_ROWS.values()}


def resolve_deck_options(analysis, *, t_end=None, **given) -> DeckOptions:
    """Merge explicit settings with a deck's cards into :class:`DeckOptions`.

    ``given`` holds the explicit settings by library keyword (the rows
    of :data:`OPTION_ROWS`; ``steps`` sets the ``m`` row), ``None``
    meaning "not given".  Each is parsed by its row, then falls back to
    its ``.options`` card (``analysis`` is the deck's
    :class:`~repro.circuits.cards.AnalysisSpec`, ``None`` for a model
    without cards), then to the default.  The rules every front door
    shares:

    * grid: ``t_end`` falls back to the ``.tran`` horizon; ``steps`` to
      ``.options m=``, then the ``.tran`` card's ``tstop / tstep``;
    * reduction: ``reduce`` / ``mor_order`` combine through
      :func:`~repro.engine.reduction.combine_reduce_options` (a moment
      count implies reduction);
    * memory: resolves to ``None`` (exact) or an
      :class:`~repro.fractional.soe.SoePlan`; an explicit
      ``memory_rtol`` alone implies ``'soe'`` and with exact memory is
      an error; the ``.options memory_rtol=`` card applies only to a
      plan named ``'soe'`` (by a card or explicitly), so a bare card
      never turns compression on and never retunes a ready plan;
    * ``basis`` and ``method`` names are validated with a did-you-mean
      diagnostic (a ready :class:`~repro.fractional.methods.
      FractionalMethod` or basis instance passes through);
    * a setting away from its default (a basis, a backend other than
      ``'auto'``, reduction, a memory plan, ``windows > 1``) that the
      method's :data:`~repro.core.dispatch.ROUTES` row does not honour
      raises the row's :class:`~repro.errors.OptionError`.
    """
    from .bundle import basis_names, validate_basis_name

    explicit = {}
    for keyword, value in given.items():
        row = _ROWS_BY_KEYWORD.get(keyword)
        if row is None:
            raise TypeError(
                f"resolve_deck_options() got an unexpected keyword argument "
                f"{keyword!r}"
            )
        if value is not None:
            explicit[row.name] = row.parse(value, OptionError, instances=True)
    cards = analysis.options if analysis is not None else {}
    merged = {**cards, **explicit}

    tran = analysis.tran if analysis is not None else None
    if t_end is None and tran is not None:
        t_end = tran.tstop
    steps = merged.get("m") or (tran.steps if tran is not None else None)

    basis = merged.get("basis")
    if isinstance(basis, str):
        basis = validate_basis_name(basis)
        if basis == "laguerre":
            raise NetlistError(
                "basis 'laguerre' needs an explicit time scale, which a name "
                "cannot carry: use the library API with a LaguerreBasis(a, m) "
                "instance, or pick one of "
                + ", ".join(n for n in basis_names() if n != "laguerre")
            )
    method = merged.get("method", next(iter(ROUTES)))
    # a method instance routes by its name
    name = validate_method_name(
        getattr(method, "name", method), ROUTES, context="method", error=OptionError
    )
    if isinstance(method, str):
        method = name
    reduce = combine_reduce_options(merged.get("reduce"), merged.get("mor_order"))
    memory = merged.get("memory")
    if memory is None and "memory_rtol" in explicit:
        memory = "soe"
    plan = resolve_memory(memory)
    rtol = explicit.get("memory_rtol")
    if rtol is None and isinstance(memory, str):
        rtol = cards.get("memory_rtol")
    if plan is not None and rtol is not None:
        plan = replace(plan, rtol=rtol)
    elif plan is None and "memory_rtol" in explicit:
        raise OptionError(
            "memory_rtol is only meaningful with memory='soe' "
            "(exact memory has no approximation tolerance)"
        )
    options = DeckOptions(
        basis=basis,
        method=method,
        backend=merged.get("backend", "auto"),
        reduce=reduce,
        memory=plan,
        windows=merged.get("windows", 1),
        t_end=None if t_end is None else float(t_end),
        steps=steps,
    )
    for option, given_here in (
        ("basis", basis is not None),
        ("backend", options.backend != "auto"),
        ("reduce", reduce is not None),
        ("memory", plan is not None),
        ("windows", options.windows > 1),
    ):
        if given_here:
            options.route.require(option)
    return options


