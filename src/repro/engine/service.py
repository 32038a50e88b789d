"""Simulation-as-a-service: the long-running OPM solve daemon.

The paper's cost model -- one pencil factorisation plus matrix
products per transient -- makes concurrent requests that share a
circuit configuration embarrassingly coalescable: their right-hand
sides are just extra columns of the same multi-RHS sweep.  This module
turns that observation into a server:

* :class:`SimulationService` -- an asyncio TCP daemon speaking
  newline-delimited JSON.  Requests (netlist text or a programmatic
  system spec, plus analysis parameters) are keyed by the session
  :attr:`~repro.engine.session.Simulator.fingerprint`; a bounded LRU
  of warm :class:`~repro.engine.session.Simulator` sessions (each with
  a byte-bounded :class:`~repro.engine.backends.PencilBank`) is kept
  across requests.  Solves run on a worker thread pool (LAPACK/SuperLU
  release the GIL) under a **work-conserving coalescing scheduler**: a
  request goes to a free thread at once, and the requests that queued
  behind a busy pool leave together when a thread frees, as one
  batched :meth:`~repro.engine.session.Simulator.sweep`.  Results
  stream back as chunked JSON or CSV; a ``stats`` op exposes cache hit
  rates, the coalesce ratio, queue/solving gauges, and p50/p99 latency.
* :class:`ServiceClient` -- the blocking socket client used by the CLI
  ``client`` mode, the load benchmark, and the CI smoke test.

Protocol
--------
One JSON object per line, both directions.  Request ``op`` values:

``simulate``
    ``{"op": "simulate", "netlist": "<deck>", "scale": 2.0}`` or
    ``{"op": "simulate", "system": {"E": [[...]], "A": [[...]],
    "B": [[...]]}, "grid": [1.0, 200], "input": 1.0}``.  Fields:
    ``op``, ``id`` (echoed back), ``netlist`` / ``system``, ``grid``
    (overrides the deck's ``.tran``), ``input``, ``scale`` or ``scales``
    (a list -- one request, many runs: a *sweep request*), ``outputs``
    (node names -- netlist requests only; default every node),
    ``samples`` (at most :data:`MAX_SAMPLES`), ``values``
    (``"outputs"`` / ``"states"``), ``format`` (``"json"`` / ``"csv"``),
    and the deck options the daemon honours (the rows of
    :data:`repro.circuits.cards.OPTION_ROWS` without a ``refusal``):
    ``basis``, ``backend``, ``method`` (``"opm"`` or a zoo name; typos
    fail with a did-you-mean suggestion), ``memory`` / ``memory_rtol``.
``lint``
    ``{"op": "lint", "netlist": "<deck>"}`` (plus ``id``).  Parses and
    graph-lints the deck (floating nodes, missing DC paths; see
    :mod:`repro.circuits.graph`) without assembling or solving it,
    returning the issue report and the structural graph summary.
``stats``
    Returns the daemon counters (see above).
``ping`` / ``shutdown``
    Liveness probe / graceful stop (queued and solving requests are
    answered first, and answers still being written get up to
    :data:`LINGER_S` seconds; idle connections close at once).

Any other field fails the request with an error line naming it -- a
refused deck option (``m`` travels in ``grid``; ``windows``,
``reduce`` and ``mor_order`` come from ``.options`` cards only) with
the reason, an unknown one with a did-you-mean -- and the connection
keeps serving.

A ``simulate`` response is a *header* line (``kind: "header"``, run
and sample counts, solver info), ``kind: "chunk"`` lines streaming the
sampled waveforms, and a ``kind: "done"`` line carrying the measured
request latency, split into ``queue_ms`` (waiting for a solve thread)
and ``solve_ms`` (the batch's solve and sampling).  Errors are single
``kind: "error"`` lines (``kind: "internal"``, counted and logged, for
an unexpected exception); the request ``id`` rides along on every line.
"""

from __future__ import annotations

import asyncio
import difflib
import json
import logging
import math
import socket
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..circuits.cards import OPTION_ROWS, AnalysisSpec
from ..errors import ReproError, ServiceError
from .inputs import scaled_input
from .session import Simulator

__all__ = [
    "SimulationService",
    "ServiceClient",
    "serve",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_SESSIONS",
]

#: Run columns one coalesced batch takes from its fingerprint's queue.
DEFAULT_MAX_BATCH = 64

#: Bound on distinct warm sessions kept resident (LRU beyond it).
DEFAULT_MAX_SESSIONS = 8

#: Samples streamed per chunk line.
CHUNK_ROWS = 512

#: Latencies kept for the p50/p99 window.
LATENCY_WINDOW = 4096

#: Longest request line (bytes): a full-precision 1,000-state dense
#: ``system`` spec fits; a longer line is refused and its connection closed.
REQUEST_LINE_LIMIT = 64 * 2**20

#: Seconds a refused connection keeps discarding input before it
#: closes, and the longest shutdown waits for answers still being written.
LINGER_S = 2.0

#: Largest ``samples`` a request may ask for (each sample is one row of
#: every output, so the bound caps one answer's memory).
MAX_SAMPLES = 2**20

_LOG = logging.getLogger(__name__)


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays into JSON-safe values."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (empty -> 0)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


def _is_number(value) -> bool:
    """A JSON number (``int`` or ``float``), never a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_system(spec: dict):
    """Build a descriptor system from a JSON system spec."""
    from ..core.lti import DescriptorSystem, FractionalDescriptorSystem

    if not isinstance(spec, dict):
        raise ServiceError(f"'system' must be an object, got {type(spec).__name__}")
    try:
        E = np.asarray(spec["E"], dtype=float)
        A = np.asarray(spec["A"], dtype=float)
        B = np.asarray(spec["B"], dtype=float)
    except KeyError as exc:
        raise ServiceError(f"system spec is missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad system matrix payload: {exc}") from exc
    x0 = spec.get("x0")
    if x0 is not None:
        if not isinstance(x0, (list, tuple)) or not all(map(_is_number, x0)):
            raise ServiceError(f"'x0' must be a list of numbers, got {x0!r}")
        x0 = np.asarray(x0, dtype=float)
    alpha = spec.get("alpha", 1.0)
    if not _is_number(alpha):
        raise ServiceError(f"'alpha' must be a number, got {alpha!r}")
    alpha = float(alpha)
    if alpha == 1.0:
        return DescriptorSystem(E, A, B, x0=x0)
    return FractionalDescriptorSystem(alpha, E, A, B, x0=x0)


def _parse_grid(grid) -> tuple[float, int]:
    """A request's ``[t_end, m]``: finite ``t_end > 0``, integral ``m >= 1``."""
    try:
        t_end, m = grid
        if _is_number(t_end) and _is_number(m):
            t_end, m_float = float(t_end), float(m)
            valid = math.isfinite(t_end) and t_end > 0 and m_float >= 1
            if valid and m_float.is_integer():
                return t_end, int(m)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ServiceError(
        "'grid' must be a [t_end, m] pair with t_end > 0 and m a positive "
        f"integer, got {grid!r}"
    )


def _validate_output_options(request: dict) -> None:
    """Reject bad per-request output options *before* the request joins
    a batch -- a malformed field must fail only its own request, never
    the coalesced siblings solved alongside it."""
    values_kind = request.get("values", "outputs")
    if values_kind not in ("outputs", "states"):
        raise ServiceError(
            f"'values' must be 'outputs' or 'states', got {values_kind!r}"
        )
    fmt = request.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ServiceError(f"'format' must be 'json' or 'csv', got {fmt!r}")
    samples = request.get("samples")
    if samples is not None and not (
        _is_number(samples)
        and 1 <= samples <= MAX_SAMPLES
        and float(samples).is_integer()
    ):
        raise ServiceError(
            f"'samples' must be an integer in [1, {MAX_SAMPLES}] (MAX_SAMPLES), "
            f"got {samples!r}"
        )


#: The deck-option rows the daemon honours as request fields.
_HONOURED = [row for row in OPTION_ROWS.values() if row.refusal is None]

#: The fields each request ``op`` accepts.
_OP_FIELDS = dict.fromkeys(("ping", "stats", "shutdown"), frozenset({"op", "id"}))
_OP_FIELDS["lint"] = _OP_FIELDS["ping"] | {"netlist"}
_OP_FIELDS["simulate"] = _OP_FIELDS["lint"] | {row.name for row in _HONOURED} | {
    "system", "grid", "input", "scale", "scales", "outputs", "samples",
    "values", "format",
}


def _check_fields(request: dict, op: str) -> None:
    """Refuse a field the ``op`` does not accept, naming it: a refused
    deck option with the reason, anything else with a did-you-mean."""
    accepted = _OP_FIELDS.get(op) if isinstance(op, str) else None
    if accepted is None:
        raise ServiceError(
            f"unknown op {op!r}; expected simulate/lint/stats/ping/shutdown"
        )
    for name in request:
        if name in accepted:
            continue
        row = OPTION_ROWS.get(name)
        if row is not None and row.refusal is not None:
            raise ServiceError(f"field {name!r} is refused: {row.refusal}")
        close = difflib.get_close_matches(name, accepted, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ServiceError(
            f"unknown field {name!r} for op {op!r}{hint}; it accepts "
            + ", ".join(sorted(accepted))
        )


#: Cumulative :meth:`PencilBank.stats
#: <repro.engine.backends.PencilBank.stats>` counters.
_BANK_COUNTERS = ("hits", "misses", "evictions", "factorisations")


@dataclass
class _SessionSpec:
    """Everything needed to (re)build one session, plus its text key."""

    key: tuple
    netlist: str | None = None
    system: dict | None = None
    grid: tuple | None = None
    outputs: tuple | None = None
    #: the request's solve settings, ``None`` where the request is
    #: silent (see :func:`~repro.engine.netlist_session.resolve_deck_options`)
    options: dict = field(default_factory=dict)

    @classmethod
    def from_request(cls, request: dict) -> "_SessionSpec":
        _check_fields(request, "simulate")
        netlist = request.get("netlist")
        system = request.get("system")
        if (netlist is None) == (system is None):
            raise ServiceError(
                "a simulate request needs exactly one of 'netlist' "
                "(deck text) or 'system' (an E/A/B spec)"
            )
        if netlist is not None and not isinstance(netlist, str):
            raise ServiceError(
                f"'netlist' must be deck text, got {type(netlist).__name__}"
            )
        outputs = request.get("outputs")
        if outputs is not None:
            if netlist is None:
                raise ServiceError(
                    "'outputs' (node names) applies to netlist requests "
                    "only; a 'system' spec selects outputs through C"
                )
            if not isinstance(outputs, (list, tuple)) or not all(
                isinstance(name, str) for name in outputs
            ):
                raise ServiceError(
                    f"'outputs' must be a list of node names, got {outputs!r}"
                )
            outputs = tuple(outputs)
        grid = request.get("grid")
        if grid is not None:
            grid = _parse_grid(grid)
        elif system is not None:
            raise ServiceError("a 'system' request requires 'grid': [t_end, m]")
        options = {}
        for row in _HONOURED:
            value = request.get(row.name)
            options[row.keyword] = (
                None if value is None else row.parse(value, ServiceError)
            )
        if options["method"] is not None:
            # a typo'd method must fail at request validation (with the
            # shared did-you-mean diagnostic), not on a worker thread
            from ..fractional.methods import validate_method_name

            options["method"] = validate_method_name(
                options["method"], context="method", error=ServiceError
            )
        if netlist is not None:
            content: tuple = ("netlist", netlist)
        else:
            # key programmatic specs by content, not object identity
            content = ("system", json.dumps(system, sort_keys=True))
        return cls(
            key=(content, grid, outputs, *options.values()),
            netlist=netlist,
            system=system,
            grid=grid,
            outputs=outputs,
            options=options,
        )

    def build(self) -> Simulator:
        """Construct the session (runs on a worker thread).

        Absent request fields stay ``None``, so the deck's ``.options``
        cards (or the defaults) fill them through the same
        :func:`~repro.engine.netlist_session.resolve_deck_options` merge
        the library and the CLI use.
        """
        from .netlist_session import from_netlist, resolve_deck_options

        if self.netlist is not None:
            return from_netlist(
                self.netlist, self.grid, outputs=self.outputs, **self.options
            )
        t_end, steps = self.grid
        return resolve_deck_options(
            AnalysisSpec(), t_end=t_end, steps=steps, **self.options
        ).session(_parse_system(self.system))


@dataclass
class _Session:
    """One resident warm session and the request keys that found it."""

    sim: Simulator
    fingerprint: tuple
    spec_keys: set = field(default_factory=set)


@dataclass
class _Pending:
    """One enqueued simulate request (possibly a multi-run sweep)."""

    request: dict
    session: _Session
    inputs: list
    future: asyncio.Future
    start: float
    enqueued: float  # when it joined its fingerprint's queue

    @property
    def n_runs(self) -> int:
        return len(self.inputs)


class SimulationService:
    """Asyncio TCP daemon with cross-request pencil coalescing.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    max_batch:
        Most runs one batch takes from its fingerprint's queue (a
        larger sweep request still goes whole).
    max_sessions:
        Bound on resident warm sessions (least recently used evicted).
    bank_entries, bank_bytes:
        Per-session :meth:`PencilBank.limit
        <repro.engine.backends.PencilBank.limit>` bounds.
    workers:
        Solve-thread pool size (default 4), shared by session builds
        and batches.  A request that finds a free thread starts at
        once, alone; requests queued behind a busy pool leave together
        when a thread frees, oldest fingerprint first.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        bank_entries: int | None = None,
        bank_bytes: int | None = None,
        workers: int = 4,
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if max_sessions < 1:
            raise ServiceError(f"max_sessions must be >= 1, got {max_sessions}")
        self.host = host
        self._requested_port = port
        self.max_batch = int(max_batch)
        self.max_sessions = int(max_sessions)
        self.bank_entries = bank_entries
        self.bank_bytes = bank_bytes
        self.workers = max(1, int(workers))
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-solve"
        )
        #: every job on the pool, session builds included
        self._jobs: set[asyncio.Future] = set()
        #: live connection handlers -> their writers, and the handlers
        #: idle between requests (waiting for a request line)
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

        # session LRU: fingerprint -> _Session, plus the text-level
        # shortcut that skips re-parsing a previously seen request spec
        self._sessions: OrderedDict[tuple, _Session] = OrderedDict()
        self._spec_to_fp: dict[tuple, tuple] = {}
        self._building: dict[tuple, asyncio.Future] = {}
        self._session_hits = 0
        self._session_misses = 0
        self._session_evictions = 0
        # pencil-bank counters of evicted sessions, so the cumulative
        # bank counters in stats() never go down on an eviction
        self._evicted_bank = dict.fromkeys(_BANK_COUNTERS, 0)

        # coalescer: fingerprint -> requests waiting for a thread, in
        # arrival order of each fingerprint's oldest waiting request
        self._queues: dict[tuple, deque[_Pending]] = {}

        self._requests = 0
        self._errors = 0
        self._internal_errors = 0
        self._batches = 0
        self._batched_runs = 0
        self._coalesced_batches = 0
        self._largest_batch = 0
        self._solving = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "SimulationService":
        """Bind the listening socket; returns ``self``."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=REQUEST_LINE_LIMIT,
        )
        return self

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`stop`)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()
            await self._drain()

    async def stop(self) -> None:
        """Answer queued and solving requests, close the server and the pool."""
        self._shutdown.set()
        await self._drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=True)

    async def _drain(self) -> None:
        """Wait until every queued and solving request has its answer
        (a queued request always has a pool job ahead of it, and each
        finished job starts the next batch), then for up to
        :data:`LINGER_S` until every answer is written; idle connections
        close at once, so an idle client does not delay the exit."""
        while self._jobs:
            await asyncio.wait(set(self._jobs))
        for task in self._idle:
            self._connections[task].close()
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=LINGER_S)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not self._shutdown.is_set():
                self._idle.add(task)
                try:
                    line = await reader.readline()
                except ValueError:  # longer than REQUEST_LINE_LIMIT
                    await self._refuse_long_line(reader, writer)
                    break
                finally:
                    self._idle.discard(task)
                if not line:
                    break
                request: dict = {}
                try:
                    decoded = json.loads(line)
                    if not isinstance(decoded, dict):
                        raise ServiceError("request must be a JSON object")
                    request = decoded
                    await self._handle_request(request, writer)
                except (json.JSONDecodeError, ReproError) as exc:
                    await self._send_error(writer, request, "error", str(exc))
                except (ConnectionResetError, BrokenPipeError):
                    raise
                except Exception as exc:
                    # the error boundary: one request's unexpected
                    # failure is answered, counted and logged, and the
                    # connection keeps serving
                    self._internal_errors += 1
                    _LOG.exception("internal error in request %r", request.get("id"))
                    await self._send_error(
                        writer, request, "internal", f"{type(exc).__name__}: {exc}"
                    )
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            del self._connections[task]

    async def _send_error(self, writer, request: dict, kind: str, error: str) -> None:
        self._errors += 1
        await self._send(
            writer, {"id": request.get("id"), "ok": False, "kind": kind, "error": error}
        )

    async def _refuse_long_line(self, reader, writer) -> None:
        """Answer an over-limit line, then half-close and discard input
        for up to :data:`LINGER_S`: closing on unread input resets the
        connection, which can drop the error line unread."""
        limit = f"the {REQUEST_LINE_LIMIT}-byte limit (REQUEST_LINE_LIMIT)"
        error = f"request line exceeds {limit}; closing the connection"
        await self._send_error(writer, {}, "error", error)
        writer.write_eof()

        async def discard() -> None:
            while await reader.read(2**16):
                pass

        try:
            await asyncio.wait_for(discard(), LINGER_S)
        except asyncio.TimeoutError:
            pass

    async def _send(self, writer, payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _handle_request(self, request: dict, writer) -> None:
        op = request.get("op", "simulate")
        rid = request.get("id")
        if op == "simulate":
            # _SessionSpec.from_request checks a simulate request's fields
            await self._simulate(request, writer)
            return
        _check_fields(request, op)
        if op == "ping":
            await self._send(writer, {"id": rid, "ok": True, "kind": "pong"})
        elif op == "stats":
            await self._send(
                writer,
                {"id": rid, "ok": True, "kind": "stats", "stats": self.stats()},
            )
        elif op == "shutdown":
            await self._send(writer, {"id": rid, "ok": True, "kind": "done"})
            self._shutdown.set()
        else:  # "lint": _check_fields refused every other op
            await self._lint(request, writer)

    async def _lint(self, request: dict, writer) -> None:
        """Graph-lint a deck without assembling or solving it.

        Returns a ``kind: "lint"`` line whose ``report`` is the
        :meth:`~repro.circuits.graph.LintReport.as_dict` payload
        (``ok`` plus per-issue code/message/nodes/elements/hint) and
        whose ``summary`` is the structural graph fingerprint.  A deck
        with defects is a *successful* lint -- the diagnostics ride in
        the report; only an unparseable deck errors.
        """
        from ..circuits.graph import CircuitGraph
        from .netlist_session import _as_netlist

        deck = request.get("netlist")
        if not isinstance(deck, str) or not deck.strip():
            raise ServiceError("lint request needs a 'netlist' deck string")
        graph = CircuitGraph(_as_netlist(deck))
        await self._send(
            writer,
            {
                "id": request.get("id"),
                "ok": True,
                "kind": "lint",
                "report": _jsonable(graph.lint().as_dict()),
                "summary": _jsonable(graph.summary()),
            },
        )

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    async def _resolve_session(self, spec: _SessionSpec) -> _Session:
        """Find (or build) the warm session for a request spec.

        Two cache levels: the spec key (raw request content) skips the
        parse/assemble entirely; the session fingerprint unifies
        distinct specs that describe the same arithmetic (same deck
        text with different whitespace-insensitive params, or a
        programmatic spec matching a netlist's model).
        """
        fp = self._spec_to_fp.get(spec.key)
        if fp is not None:
            session = self._sessions.get(fp)
            if session is not None:
                self._session_hits += 1
                self._sessions.move_to_end(fp)
                return session
            self._spec_to_fp.pop(spec.key, None)
        pending_build = self._building.get(spec.key)
        if pending_build is not None:
            session = await pending_build
            self._session_hits += 1
            return session

        build_future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._building[spec.key] = build_future
        try:
            sim = await self._submit(spec.build)
            fp = sim.fingerprint
            session = self._sessions.get(fp)
            if session is None:
                if self.bank_entries is not None or self.bank_bytes is not None:
                    sim.limit_cache(
                        max_entries=self.bank_entries, max_bytes=self.bank_bytes
                    )
                session = _Session(sim=sim, fingerprint=fp)
                self._sessions[fp] = session
                self._session_misses += 1
                while len(self._sessions) > self.max_sessions:
                    _, evicted = self._sessions.popitem(last=False)
                    for key in evicted.spec_keys:
                        self._spec_to_fp.pop(key, None)
                    bank_stats = evicted.sim.bank.stats()
                    for name in _BANK_COUNTERS:
                        self._evicted_bank[name] += bank_stats[name]
                    self._session_evictions += 1
            else:
                # distinct request text, identical arithmetic: the
                # existing warm session (and its pencil bank) serves it
                self._session_hits += 1
                self._sessions.move_to_end(fp)
            session.spec_keys.add(spec.key)
            self._spec_to_fp[spec.key] = fp
            build_future.set_result(session)
            return session
        except BaseException as exc:
            build_future.set_exception(exc)
            # consume the exception if nobody else awaited this build
            build_future.exception()
            raise
        finally:
            self._building.pop(spec.key, None)

    def _request_inputs(self, request: dict, session: _Session) -> list:
        """The run inputs one request contributes to its batch."""
        scales = request.get("scales")
        if scales is None:
            scales = [request.get("scale", 1.0)]
        if not isinstance(scales, (list, tuple)) or not scales:
            raise ServiceError(f"'scales' must be a non-empty list, got {scales!r}")
        u = request.get("input")
        if u is None:
            u = session.sim.bound_input
            if u is None:
                raise ServiceError(
                    "request has no 'input' and the session has no bound "
                    "source waveform (programmatic sessions need 'input')"
                )
        elif isinstance(u, (list, tuple)):
            # projected (shape-checked against the session's (p, m)) before
            # queueing, so a bad array fails alone, not its coalesced batch
            try:
                u = session.sim.project(u)
            except (TypeError, ValueError) as exc:
                raise ServiceError(
                    f"'input' must be a number or a rectangular coefficient "
                    f"array: {exc}"
                ) from exc
        elif not isinstance(u, (int, float)):
            raise ServiceError(
                f"'input' must be a number or a coefficient array, got "
                f"{type(u).__name__}"
            )
        try:
            return [scaled_input(u, float(s)) for s in scales]
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"bad 'scale(s)' value: {exc}") from exc

    # ------------------------------------------------------------------
    # the coalescing scheduler
    # ------------------------------------------------------------------
    async def _simulate(self, request: dict, writer) -> None:
        start = time.perf_counter()
        self._requests += 1
        rid = request.get("id")
        try:
            _validate_output_options(request)
            spec = _SessionSpec.from_request(request)
            session = await self._resolve_session(spec)
            inputs = self._request_inputs(request, session)
            pending = _Pending(
                request=request,
                session=session,
                inputs=inputs,
                future=asyncio.get_running_loop().create_future(),
                start=start,
                enqueued=time.perf_counter(),
            )
            self._queues.setdefault(session.fingerprint, deque()).append(pending)
            self._pump()
            payload = await pending.future
            await self._stream_result(writer, rid, pending, payload)
        except ReproError as exc:
            await self._send_error(writer, request, "error", str(exc))

    def _submit(self, fn, *args) -> asyncio.Future:
        """Run ``fn`` on the solve pool as one counted job."""
        job = asyncio.get_running_loop().run_in_executor(self._pool, fn, *args)
        self._jobs.add(job)
        job.add_done_callback(self._pump)
        return job

    def _pump(self, finished: asyncio.Future | None = None) -> None:
        """Start the oldest waiting fingerprint's batch (up to
        ``max_batch`` runs) while the pool has a free thread -- also when
        job ``finished`` frees one.  Batches form only behind a busy
        pool, so coalescing costs no waiting."""
        self._jobs.discard(finished)
        while self._queues and len(self._jobs) < self.workers:
            key = next(iter(self._queues))
            queue = self._queues[key]
            batch = [queue.popleft()]
            runs = batch[0].n_runs
            while queue and runs + queue[0].n_runs <= self.max_batch:
                runs += queue[0].n_runs
                batch.append(queue.popleft())
            if not queue:
                # a split batch's rest keeps its place as the oldest
                del self._queues[key]
            self._batches += 1
            self._batched_runs += runs
            self._largest_batch = max(self._largest_batch, runs)
            if len(batch) > 1:
                self._coalesced_batches += 1
            self._solving += 1
            job = self._submit(self._timed_solve, batch)
            job.add_done_callback(partial(self._finish, batch))

    def _finish(self, batch: list[_Pending], job: asyncio.Future) -> None:
        """Answer a finished batch's waiters -- a failed solve fails them,
        whatever the exception class, and never leaves them hanging; a
        request whose own payload failed gets that exception alone."""
        self._solving -= 1
        exc = job.exception()
        for i, p in enumerate(batch):
            if p.future.done():  # its connection is gone
                continue
            out = job.result()[i] if exc is None else ServiceError(
                f"batched solve failed: {exc}"
            )
            if isinstance(out, Exception):
                p.future.set_exception(out)
            else:
                p.future.set_result(out)

    def _timed_solve(self, batch: list[_Pending]) -> list[dict]:
        """:meth:`_solve_batch`, stamping each payload with its queue wait
        (enqueue to this thread starting) and the batch's solve time."""
        started = time.perf_counter()
        payloads = self._solve_batch(batch)
        solve_ms = (time.perf_counter() - started) * 1e3
        for p, payload in zip(batch, payloads):
            if isinstance(payload, dict):
                payload.update(
                    queue_ms=(started - p.enqueued) * 1e3, solve_ms=solve_ms
                )
        return payloads

    def _solve_batch(self, batch: list[_Pending]) -> list:
        """One batched multi-RHS solve for every queued request.

        Runs on a worker thread.  A single-run batch goes through
        ``run``; anything larger is one ``sweep``, and each request
        samples its own slice of the batch.  Each request's payload is
        built on its own: one whose sampling raises gets the exception
        in its slot, and the others are still answered.
        """
        sim = batch[0].session.sim
        inputs = [u for p in batch for u in p.inputs]
        result = sim.run(inputs[0]) if len(inputs) == 1 else sim.sweep(inputs)
        payloads: list = []
        offset = 0
        for p in batch:
            runs = result if len(inputs) == 1 else result[offset : offset + p.n_runs]
            offset += p.n_runs
            try:
                payloads.append(
                    self._build_payload(p, runs, len(inputs), len(batch) > 1)
                )
            except Exception as exc:  # fails this request alone
                payloads.append(exc)
        return payloads

    def _build_payload(
        self, pending: _Pending, runs, batch_runs: int, coalesced: bool
    ) -> dict:
        """Sample one request's runs -- a single result or a batch slice --
        into its response payload."""
        request = pending.request
        samples = request.get("samples")
        values_kind = request.get("values", "outputs")
        fmt = request.get("format", "json")
        t = runs.sample_times(samples) if samples else runs.sample_times()
        v = runs.outputs(t) if values_kind == "outputs" else runs.states(t)
        info = _jsonable(dict(runs.info))
        info["coalesced"] = coalesced
        info["batch_runs"] = batch_runs
        return {
            "sampled": [(t, block) for block in v.reshape((-1,) + v.shape[-2:])],
            "info": info,
            "format": fmt,
            "values": values_kind,
        }

    async def _stream_result(self, writer, rid, pending: _Pending, payload) -> None:
        """Header line, chunked samples, done line.

        Lines are buffered and flushed with one ``write``/``drain`` pair
        per ``CHUNK_ROWS`` of samples -- a syscall per *chunk*, not per
        protocol line, which matters at small-request load.
        """
        sampled = payload["sampled"]
        fmt = payload["format"]
        n_rows = int(sampled[0][0].size)
        n_cols = int(sampled[0][1].shape[0])
        buffered = [
            json.dumps(
                {
                    "id": rid,
                    "ok": True,
                    "kind": "header",
                    "runs": len(sampled),
                    "rows": n_rows,
                    "cols": n_cols,
                    "info": payload["info"],
                }
            ).encode()
        ]
        for run_index, (t, v) in enumerate(sampled):
            for lo in range(0, t.size, CHUNK_ROWS):
                hi = min(lo + CHUNK_ROWS, t.size)
                chunk: dict = {"id": rid, "kind": "chunk", "run": run_index}
                if fmt == "json":
                    chunk["t"] = t[lo:hi].tolist()
                    chunk["values"] = v[:, lo:hi].tolist()
                else:
                    lines = []
                    if lo == 0:
                        names = [
                            f"{payload['values'][:-1]}{j}" for j in range(v.shape[0])
                        ]
                        lines.append(",".join(["t"] + names))
                    rows = np.column_stack([t[lo:hi], v[:, lo:hi].T]).tolist()
                    lines.extend(",".join(map(repr, row)) for row in rows)
                    chunk["csv"] = "\n".join(lines) + "\n"
                buffered.append(json.dumps(chunk).encode())
                if hi - lo == CHUNK_ROWS:
                    writer.write(b"\n".join(buffered) + b"\n")
                    buffered = []
                    await writer.drain()
        latency_ms = (time.perf_counter() - pending.start) * 1e3
        self._latencies.append(latency_ms)
        done = {"id": rid, "kind": "done", "ok": True, "latency_ms": latency_ms}
        done.update(queue_ms=payload["queue_ms"], solve_ms=payload["solve_ms"])
        buffered.append(json.dumps(done).encode())
        writer.write(b"\n".join(buffered) + b"\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The daemon counters: caches, coalescing, queue, latency."""
        # entries/nbytes are live gauges; the counters are cumulative
        bank = {"entries": 0, "nbytes": 0, **self._evicted_bank}
        for session in self._sessions.values():
            s = session.sim.bank.stats()
            for field_name in bank:
                bank[field_name] += s[field_name]
        ordered = sorted(self._latencies)
        return {
            "requests": self._requests,
            "errors": self._errors,
            "internal_errors": self._internal_errors,
            "batches": self._batches,
            "batched_runs": self._batched_runs,
            "coalesced_batches": self._coalesced_batches,
            "largest_batch": self._largest_batch,
            "coalesce_ratio": (
                self._batched_runs / self._batches if self._batches else 0.0
            ),
            # requests waiting for a solve thread / batches on one
            "queue_depth": sum(len(q) for q in self._queues.values()),
            "solving": self._solving,
            "sessions": {
                "entries": len(self._sessions),
                "hits": self._session_hits,
                "misses": self._session_misses,
                "evictions": self._session_evictions,
                "max_sessions": self.max_sessions,
            },
            "bank": bank,
            "latency_ms": {
                "count": len(ordered),
                "mean": sum(ordered) / len(ordered) if ordered else 0.0,
                "p50": _percentile(ordered, 0.50),
                "p99": _percentile(ordered, 0.99),
            },
        }


async def _serve_async(service: SimulationService, *, announce) -> None:
    await service.start()
    if announce is not None:
        announce(service)
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def serve(announce=print, **kwargs) -> None:
    """Run a :class:`SimulationService` until shutdown (blocking).

    ``announce`` (default: print) receives the started service, so
    callers binding ``port=0`` can learn the actual port; pass ``None``
    to silence it.  Keyword arguments go to :class:`SimulationService`.
    """
    service = SimulationService(**kwargs)
    if announce is print:
        def announce(svc):  # noqa: F811 - the default banner
            print(f"repro service listening on {svc.host}:{svc.port}", flush=True)

    asyncio.run(_serve_async(service, announce=announce))


class ServiceClient:
    """Blocking JSON-lines client for :class:`SimulationService`.

    >>> client = ServiceClient("127.0.0.1", 7777)       # doctest: +SKIP
    >>> out = client.simulate(netlist=deck, scale=2.0)  # doctest: +SKIP
    >>> out["values"][0][-1]                            # doctest: +SKIP
    """

    def __init__(self, host: str, port: int, *, timeout: float = 120.0) -> None:
        self.host = host
        self.port = int(port)
        self._sock = socket.create_connection((host, self.port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    # -- plumbing ------------------------------------------------------
    def _round_trip(self, payload: dict) -> dict:
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        return self._read_line()

    def _read_line(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ServiceError("service closed the connection")
        reply = json.loads(line)
        if reply.get("kind") == "error" or reply.get("ok") is False:
            raise ServiceError(reply.get("error", "service error"))
        return reply

    # -- operations ----------------------------------------------------
    def ping(self) -> bool:
        """Liveness probe."""
        return self._round_trip({"op": "ping"})["kind"] == "pong"

    def stats(self) -> dict:
        """Fetch the daemon's cache/coalescing/latency counters."""
        return self._round_trip({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        """Ask the daemon to stop (pending batches finish first)."""
        self._round_trip({"op": "shutdown"})

    def lint(self, netlist: str) -> dict:
        """Graph-lint a deck on the daemon (no assembly, no solve).

        Returns ``{"report": ..., "summary": ...}`` where ``report``
        carries ``ok`` and the issue list (code / message / nodes /
        elements / hint per defect) and ``summary`` the structural
        graph fingerprint.  Defective decks return normally -- the
        diagnostics are the payload; only an unparseable deck raises.
        """
        reply = self._round_trip({"op": "lint", "netlist": netlist})
        if reply.get("kind") != "lint":
            raise ServiceError(f"expected a lint reply, got {reply!r}")
        return {"report": reply["report"], "summary": reply["summary"]}

    def simulate(self, **request) -> dict:
        """One simulate round trip; assembles the chunked response.

        Takes the ``simulate`` fields of the protocol (see the module
        docstring): ``netlist`` / ``system`` + ``grid``, ``input``,
        ``scale`` / ``scales``, ``outputs``, ``samples``, ``values``,
        ``format``, ``id`` and the honoured deck options ``basis``,
        ``backend``, ``method``, ``memory`` / ``memory_rtol``; the
        daemon refuses any other field with a :class:`ServiceError`
        naming it.  Returns a dict with ``info``, ``latency_ms`` /
        ``queue_ms`` / ``solve_ms``, and either ``runs`` (a list of
        ``{"t": [...], "values": [[...]]}`` per run, with ``t`` /
        ``values`` aliased to the first run) or ``csv`` text.
        """
        request["op"] = "simulate"
        header = self._round_trip(request)
        if header.get("kind") != "header":
            raise ServiceError(f"expected a header line, got {header!r}")
        runs = [
            {"t": [], "values": [[] for _ in range(header["cols"])], "csv": []}
            for _ in range(header["runs"])
        ]
        while True:
            reply = self._read_line()
            kind = reply.get("kind")
            if kind == "done":
                break
            if kind != "chunk":
                raise ServiceError(f"expected a chunk line, got {reply!r}")
            run = runs[reply.get("run", 0)]
            if "csv" in reply:
                run["csv"].append(reply["csv"])
            else:
                run["t"].extend(reply["t"])
                for row, new in zip(run["values"], reply["values"]):
                    row.extend(new)
        out = {
            "info": header["info"],
            "rows": header["rows"],
            "cols": header["cols"],
            "latency_ms": reply["latency_ms"],
            "queue_ms": reply["queue_ms"],
            "solve_ms": reply["solve_ms"],
        }
        if runs and runs[0]["csv"]:
            out["csv"] = "".join(part for run in runs for part in run["csv"])
        else:
            out["runs"] = [
                {"t": run["t"], "values": run["values"]} for run in runs
            ]
            out["t"] = out["runs"][0]["t"]
            out["values"] = out["runs"][0]["values"]
        return out

    def close(self) -> None:
        """Close the socket (also via the context-manager protocol)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
