"""Circuit-graph analysis over a flattened netlist.

The middle stage of the netlist pipeline **parse -> graph-analyse ->
assemble**: a :class:`CircuitGraph` views a :class:`~repro.circuits.netlist.Netlist`
as an undirected multigraph (nodes = circuit nodes, edges = element
terminal pairs) and answers the structural questions that matter
*before* any matrix is stamped:

* **Lint** (:meth:`CircuitGraph.lint` / :meth:`CircuitGraph.check`):
  floating or dangling nodes and connected components with no
  conductive path to ground produce a structurally singular MNA pencil.
  Without the lint these defects surface as a
  :class:`~repro.errors.SingularPencilError` deep inside the solver;
  with it they fail fast, naming the offending nodes and elements and
  suggesting a fix.
* **Connected components** (:attr:`CircuitGraph.components`): electrically
  independent sub-circuits sharing one deck; the monolithic pencil is a
  permuted block-diagonal of the component pencils.
* **Degree statistics** (:meth:`CircuitGraph.degree` /
  :meth:`CircuitGraph.summary`): quick structural fingerprints for
  logging and benchmarks.

Edges and coupling rules
------------------------
Element terminals ``a``/``b`` contribute edges and node degree.  A VCCS
control pair ``c``/``d`` contributes *no* degree (a control-only node
has an all-zero KCL row and is reported as floating) but does merge
components: the transconductance stamp couples rows ``a``/``b`` with
columns ``c``/``d``, so they belong to one diagonal block.  A ``K``
mutual coupling likewise merges the components of its two inductors.
Ground never merges components -- two sub-circuits that only share the
reference node are independent.

A component is **grounded** when at least one element that can carry
the component's KCL current into the reference -- resistor, capacitor,
inductor, CPE, voltage source, or VCCS output, the card kinds whose
table row ``pins`` -- has a grounded terminal.  Current sources do not count: they stamp only the input
matrix, so a component tied to ground through nothing but current
sources keeps zero row-sums and stays singular at every frequency.

Examples
--------
>>> from repro.circuits import Netlist
>>> nl = Netlist.from_spice('''
... I1 0 a 1m
... R1 a 0 1k
... C1 a b 1u
... ''')
>>> graph = CircuitGraph(nl)
>>> [issue.code for issue in graph.lint()]
['floating-node']
>>> graph.lint()[0].nodes
('b',)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NetlistError
from .components import kind_of
from .netlist import Netlist

__all__ = ["CircuitGraph", "GraphComponent", "LintIssue", "LintReport"]


@dataclass(frozen=True)
class LintIssue:
    """One structural defect found by :meth:`CircuitGraph.lint`.

    ``code`` is machine-readable (``"floating-node"`` or
    ``"no-dc-path"``); ``nodes`` / ``elements`` name the offenders and
    ``hint`` suggests a fix.
    """

    code: str
    message: str
    nodes: tuple[str, ...] = ()
    elements: tuple[str, ...] = ()
    hint: str = ""

    def __str__(self) -> str:
        text = f"[{self.code}] {self.message}"
        return f"{text} (fix: {self.hint})" if self.hint else text


@dataclass(frozen=True)
class LintReport:
    """All lint issues of one deck, iterable and index-able.

    Falsy when the deck is clean, so ``if graph.lint(): ...`` reads
    naturally; :meth:`raise_if_issues` converts the report into a
    :class:`~repro.errors.NetlistError` naming every defect at once.
    """

    issues: tuple[LintIssue, ...] = ()
    title: str = ""

    def __bool__(self) -> bool:
        return bool(self.issues)

    def __len__(self) -> int:
        return len(self.issues)

    def __iter__(self):
        return iter(self.issues)

    def __getitem__(self, index: int) -> LintIssue:
        return self.issues[index]

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(issue.code for issue in self.issues)

    def raise_if_issues(self) -> None:
        """Raise a :class:`NetlistError` listing every issue (no-op when clean)."""
        if not self.issues:
            return
        deck = f" in {self.title!r}" if self.title else ""
        lines = "\n".join(f"  - {issue}" for issue in self.issues)
        raise NetlistError(
            f"circuit graph lint found {len(self.issues)} structural "
            f"defect(s){deck}:\n{lines}"
        )

    def as_dict(self) -> dict:
        """JSON-friendly form (what the service daemon's ``lint`` op returns)."""
        return {
            "ok": not self.issues,
            "issues": [
                {
                    "code": issue.code,
                    "message": issue.message,
                    "nodes": list(issue.nodes),
                    "elements": list(issue.elements),
                    "hint": issue.hint,
                }
                for issue in self.issues
            ],
        }


@dataclass(frozen=True)
class GraphComponent:
    """One connected component of the circuit graph.

    ``nodes`` are the member non-ground nodes in netlist order,
    ``elements`` the member element names (couplings included) in
    insertion order, and ``grounded`` whether any pinning element ties
    the component to the reference node.
    """

    index: int
    nodes: tuple[str, ...]
    elements: tuple[str, ...]
    grounded: bool


class CircuitGraph:
    """Connectivity view of a flattened :class:`Netlist` (see module docs).

    Examples
    --------
    >>> from repro.circuits import Netlist
    >>> nl = Netlist.from_spice('''
    ... I1 0 a 1m
    ... R1 a 0 1k
    ... I2 0 p 1m
    ... R2 p q 1k
    ... C2 q 0 1u
    ... ''')
    >>> graph = CircuitGraph(nl)
    >>> graph.n_components, [c.nodes for c in graph.components]
    (2, [('a',), ('p', 'q')])
    >>> graph.degree("q"), bool(graph.lint())
    (2, False)
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._degree: dict[str, int] = {node: 0 for node in netlist.nodes}
        self._attached: dict[str, list[str]] = {node: [] for node in netlist.nodes}
        parent: dict[str, str] = {node: node for node in netlist.nodes}

        def find(node: str) -> str:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:
                parent[node], node = root, parent[node]
            return root

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        element_nodes: dict[str, list[str]] = {}
        for element in netlist.elements:
            live = [t for t in (element.a, element.b) if not Netlist.is_ground(t)]
            for node in live:
                self._degree[node] += 1
                self._attached[node].append(element.name)
            # control refs (a VCCS's c, d) add no degree but do merge components
            for field in kind_of(element).controls:
                if not Netlist.is_ground(getattr(element, field)):
                    live.append(getattr(element, field))
            element_nodes[element.name] = live
            for node in live[1:]:
                union(live[0], node)
        for pair in netlist.couplings:
            joined = [
                node
                for field in kind_of(pair).refs
                for node in element_nodes.get(getattr(pair, field), ())
            ]
            for node in joined[1:]:
                union(joined[0], node)

        roots: dict[str, int] = {}
        comp_nodes: list[list[str]] = []
        for node in netlist.nodes:
            root = find(node)
            if root not in roots:
                roots[root] = len(comp_nodes)
                comp_nodes.append([])
            comp_nodes[roots[root]].append(node)
        self._component_of: dict[str, int] = {
            node: roots[find(node)] for node in netlist.nodes
        }

        comp_elements: list[list[str]] = [[] for _ in comp_nodes]
        comp_grounded = [False] * len(comp_nodes)
        self._elements_of: dict[str, int | None] = {}
        for element in netlist.elements:
            index = self._element_component(element)
            self._elements_of[element.name] = index
            if index is None:
                continue
            comp_elements[index].append(element.name)
            if kind_of(element).pins and (
                Netlist.is_ground(element.a) or Netlist.is_ground(element.b)
            ):
                comp_grounded[index] = True
        for pair in netlist.couplings:
            nodes = element_nodes.get(pair.inductor1, ())
            index = self._component_of[nodes[0]] if nodes else None
            self._elements_of[pair.name] = index
            if index is not None:
                comp_elements[index].append(pair.name)

        self.components: tuple[GraphComponent, ...] = tuple(
            GraphComponent(
                index=i,
                nodes=tuple(nodes),
                elements=tuple(comp_elements[i]),
                grounded=comp_grounded[i],
            )
            for i, nodes in enumerate(comp_nodes)
        )

    def _element_component(self, element) -> int | None:
        for terminal in (element.a, element.b):
            if not Netlist.is_ground(terminal):
                return self._component_of[terminal]
        return None  # both terminals grounded: stamps nothing

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """Non-ground node names, netlist order."""
        return self.netlist.nodes

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def orphan_elements(self) -> tuple[str, ...]:
        """Elements belonging to no component (every terminal grounded).

        Such degenerate elements stamp nothing useful but may still own
        a state row (a voltage source).
        """
        return tuple(
            name for name, index in self._elements_of.items() if index is None
        )

    def degree(self, node: str) -> int:
        """Element-terminal attachments at ``node`` (control refs excluded)."""
        try:
            return self._degree[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def component_of(self, node: str) -> GraphComponent:
        """The connected component containing ``node``."""
        try:
            return self.components[self._component_of[node]]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def summary(self) -> dict:
        """Structural fingerprint: node/element/component counts and degrees."""
        degrees = sorted(self._degree.values())
        return {
            "nodes": len(self._degree),
            "elements": len(self.netlist.elements),
            "components": self.n_components,
            "grounded_components": sum(c.grounded for c in self.components),
            "min_degree": degrees[0] if degrees else 0,
            "max_degree": degrees[-1] if degrees else 0,
        }

    # ------------------------------------------------------------------
    # lint
    # ------------------------------------------------------------------
    def lint(self) -> LintReport:
        """Structural defects that would make the MNA pencil singular.

        * ``floating-node`` -- a non-ground node attached to fewer than
          two element terminals.  A node with no attachments (e.g. one
          referenced only by a VCCS control pair) has an all-zero KCL
          row; a dangling single attachment carries no current and is
          almost always a netlist typo.
        * ``no-dc-path`` -- a connected component with no pinning
          element to ground (see module docs), i.e. its block of the
          pencil has zero row-sums and is singular at every frequency.
        """
        issues: list[LintIssue] = []
        for node in self.netlist.nodes:
            degree = self._degree[node]
            if degree >= 2:
                continue
            attached = tuple(self._attached[node])
            if degree == 0:
                message = (
                    f"node {node!r} has no element terminal attached "
                    "(it appears only as a VCCS control reference)"
                )
                hint = "attach an element, or ground the control reference"
            else:
                message = (
                    f"node {node!r} dangles from a single element "
                    f"terminal ({attached[0]})"
                )
                hint = (
                    "connect a second element, or remove the dangling branch"
                )
            issues.append(
                LintIssue(
                    code="floating-node",
                    message=message,
                    nodes=(node,),
                    elements=attached,
                    hint=hint,
                )
            )
        for component in self.components:
            if component.grounded:
                continue
            issues.append(
                LintIssue(
                    code="no-dc-path",
                    message=(
                        f"component {component.index} "
                        f"(nodes {', '.join(component.nodes)}) has no "
                        "conductive path to ground"
                    ),
                    nodes=component.nodes,
                    elements=component.elements,
                    hint=(
                        "tie the component to node 0 through a resistor, "
                        "voltage source, or other conductive element "
                        "(current sources do not provide a DC path)"
                    ),
                )
            )
        return LintReport(issues=tuple(issues), title=self.netlist.title)

    def check(self) -> "CircuitGraph":
        """Raise :class:`NetlistError` naming every lint defect; else ``self``."""
        self.lint().raise_if_issues()
        return self
