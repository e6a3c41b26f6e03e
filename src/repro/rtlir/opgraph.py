"""Dataflow graph construction over a module's assignments.

The graph is used for

* *serial* operation selection in ASSURE (operations ordered by their
  topological position in the dataflow, mirroring the paper's "serial manner
  w.r.t. the design topology"),
* structural statistics (fan-out, dataflow depth, connected operation
  networks such as the ``+``-network of Fig. 4),
* the extra context features of the SnapShot locality extractor.

Nodes are either *signal* nodes (named wires/regs/ports) or *operation* nodes
(one per lockable operation site).  Edges point from producers to consumers.
The graph is a plain insertion-ordered successor map: an operation node is
keyed by its site index (an ``int``), a signal node by its name (a ``str``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from ..verilog import ast_nodes as ast
from .sites import OperationSite, SiteCollection, collect_sites

#: A graph node key: a site index (operation node) or a signal name.
Node = Union[int, str]

#: Node -> its successors, both in insertion order (the values are unused).
Successors = Dict[Node, Dict[Node, None]]


@dataclass(frozen=True)
class SignalNode:
    """Graph node representing a named signal."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"sig:{self.name}"


@dataclass(frozen=True)
class OperationNode:
    """Graph node representing one operation site (identified by site index)."""

    index: int
    op: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"op{self.index}:{self.op}"


def acyclic_view(graph: Successors) -> Successors:
    """Return a copy of ``graph`` with one edge of every cycle removed.

    A depth-first search runs from every node in node order, following
    successors in order and skipping nodes finished by an earlier start.  At
    a back edge ``u -> h`` it deletes the edge from ``h`` to the next node on
    the active path (the self-loop itself when ``u`` is ``h``), forgets every
    node discovered since that next node and resumes ``h``'s successors.
    This removes exactly the edges that restarting the search from scratch
    after each deletion would, in a single pass.
    """
    successors = {node: dict(children) for node, children in graph.items()}
    explored: Set[Node] = set()
    for root in successors:
        if root in explored:
            continue
        found: List[Node] = [root]
        found_at: Dict[Node, int] = {root: 0}
        on_path: Dict[Node, int] = {root: 0}
        path = [(root, iter(tuple(successors[root])))]
        while path:
            node, children = path[-1]
            for child in children:
                if child in explored:
                    continue
                level = on_path.get(child)
                if level is not None:
                    if child == node:
                        del successors[node][node]
                        continue
                    cut, _ = path[level + 1]
                    del successors[child][cut]
                    since = found_at[cut]
                    for forgotten in found[since:]:
                        del found_at[forgotten]
                    del found[since:]
                    for dropped, _ in path[level + 1:]:
                        del on_path[dropped]
                    del path[level + 1:]
                    break
                if child in found_at:
                    continue
                found_at[child] = len(found)
                found.append(child)
                on_path[child] = len(path)
                path.append((child, iter(tuple(successors[child]))))
                break
            else:
                path.pop()
                del on_path[node]
        explored.update(found)
    return successors


def topological_order(graph: Successors) -> List[Node]:
    """Return the nodes of the acyclic ``graph`` in topological order.

    Generation by generation (Kahn): the nodes without predecessors in node
    order, then the nodes their edges release, in successor order.
    """
    indegree = dict.fromkeys(graph, 0)
    for children in graph.values():
        for child in children:
            indegree[child] += 1
    generation = [node for node, count in indegree.items() if count == 0]
    order: List[Node] = []
    while generation:
        order.extend(generation)
        released: List[Node] = []
        for node in generation:
            for child in graph[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    released.append(child)
        generation = released
    return order


class OperationGraph:
    """Dataflow graph of a single module.

    Attributes:
        graph: Node -> successor map (see :data:`Successors`); operation
            nodes are site indices, signal nodes are signal names.
        sites: The operation sites the graph was built from.
    """

    def __init__(self, graph: Successors, sites: SiteCollection,
                 module: ast.Module) -> None:
        self.graph = graph
        self.sites = sites
        self.module = module

    # ------------------------------------------------------------------ stats

    def operation_nodes(self) -> List[OperationNode]:
        """Return all operation nodes."""
        op_of = {site.index: site.op for site in self.sites}
        return [OperationNode(node, op_of[node]) for node in self.graph
                if isinstance(node, int)]

    def signal_nodes(self) -> List[SignalNode]:
        """Return all signal nodes."""
        return [SignalNode(node) for node in self.graph if isinstance(node, str)]

    def fanout(self, signal: str) -> int:
        """Return the out-degree of a signal node (0 if the signal is unknown)."""
        return len(self.graph.get(signal, ()))

    def depth(self) -> int:
        """Return the longest path length (dataflow depth) ignoring cycles."""
        acyclic = acyclic_view(self.graph)
        longest = dict.fromkeys(acyclic, 0)
        for node in topological_order(acyclic):
            reach = longest[node] + 1
            for child in acyclic[node]:
                if longest[child] < reach:
                    longest[child] = reach
        return max(longest.values(), default=0)

    def topological_site_order(self) -> List[OperationSite]:
        """Return sites ordered by topological position (ties by site index).

        This order is used by ASSURE's *serial* selection: operations closer
        to the primary inputs are locked first, and the order is deterministic
        for a given design.
        """
        order: Dict[int, int] = {}
        for position, node in enumerate(
                topological_order(acyclic_view(self.graph))):
            if isinstance(node, int):
                order[node] = position
        return sorted(self.sites,
                      key=lambda s: (order.get(s.index, len(order)), s.index))

    def connected_operation_network(self, operator: str) -> List[Set[int]]:
        """Return connected components of operation sites with the given operator.

        Two sites are connected when one feeds the other (possibly through a
        named signal).  This is the "network of + operations" view of Fig. 4.
        """
        wanted = {site.index for site in self.sites if site.op == operator}
        neighbours: Dict[Node, Set[Node]] = {node: set() for node in self.graph}
        for node, children in self.graph.items():
            for child in children:
                neighbours[node].add(child)
                neighbours[child].add(node)
        # Symmetric by construction: a shared signal or a direct edge links
        # both ends.
        linked: Dict[int, Set[int]] = {index: set() for index in wanted}
        for index in wanted:
            for neighbour in neighbours.get(index, ()):
                reach = (neighbours[neighbour] if isinstance(neighbour, str)
                         else (neighbour,))
                linked[index].update(wanted.intersection(reach))
            linked[index].discard(index)
        components: List[Set[int]] = []
        seen: Set[int] = set()
        for start in linked:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                for other in linked[frontier.pop()]:
                    if other not in component:
                        component.add(other)
                        frontier.append(other)
            seen |= component
            components.append(component)
        return components

    def statistics(self) -> Dict[str, float]:
        """Return a dictionary of structural statistics of the dataflow graph."""
        sig_nodes = [node for node in self.graph if isinstance(node, str)]
        return {
            "num_operations": float(len(self.graph) - len(sig_nodes)),
            "num_signals": float(len(sig_nodes)),
            "num_edges": float(sum(map(len, self.graph.values()))),
            "depth": float(self.depth()),
            "avg_fanout": (
                float(sum(len(self.graph[n]) for n in sig_nodes)) / len(sig_nodes)
                if sig_nodes else 0.0
            ),
        }


def _referenced_signals(expr: ast.Expression) -> List[str]:
    names: List[str] = []
    for node in expr.iter_tree():
        if isinstance(node, ast.Identifier):
            names.append(node.name)
    return names


def _target_signal(lhs: ast.Expression) -> Optional[str]:
    if isinstance(lhs, ast.Identifier):
        return lhs.name
    if isinstance(lhs, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
        return _target_signal(lhs.target)
    if isinstance(lhs, ast.Concat) and lhs.parts:
        return _target_signal(lhs.parts[0])
    return None


def build_operation_graph(module: ast.Module,
                          key_names: Optional[Set[str]] = None,
                          sites: Optional[SiteCollection] = None) -> OperationGraph:
    """Build the dataflow :class:`OperationGraph` of ``module``.

    Args:
        module: Module to analyse.
        key_names: Key signal names (passed through to site collection).
        sites: Pre-collected sites; collected on demand when omitted.
    """
    if sites is None:
        sites = collect_sites(module, key_names)
    graph: Successors = {}

    def add_edge(source: Node, target: Node) -> None:
        successors = graph.setdefault(source, {})
        graph.setdefault(target, {})
        successors[target] = None

    site_by_node: Dict[int, OperationSite] = {id(s.node): s for s in sites}

    # Operation-level edges: operand expressions feed the operation.
    for site in sites:
        target = site.index
        graph.setdefault(target, {})
        for operand in (site.node.left, site.node.right):
            inner_site = site_by_node.get(id(operand))
            if inner_site is not None:
                add_edge(inner_site.index, target)
                continue
            for name in _referenced_signals(operand):
                add_edge(name, target)

    # Assignment-level edges: operations and signals feed the assigned signal.
    assignments: List[Tuple[ast.Expression, ast.Expression]] = []
    for item in module.items:
        if isinstance(item, ast.ContinuousAssign):
            assignments.append((item.lhs, item.rhs))
        elif isinstance(item, ast.NetDeclaration) and item.init is not None:
            assignments.append((ast.Identifier(item.names[0]), item.init))
        elif isinstance(item, (ast.AlwaysBlock, ast.InitialBlock)):
            for node in item.statement.iter_tree():
                if isinstance(node, (ast.BlockingAssign, ast.NonBlockingAssign)):
                    assignments.append((node.lhs, node.rhs))

    for lhs, rhs in assignments:
        target_name = _target_signal(lhs)
        if target_name is None:
            continue
        top_site = site_by_node.get(id(rhs))
        if top_site is not None:
            add_edge(top_site.index, target_name)
        else:
            for node in rhs.iter_tree():
                inner = site_by_node.get(id(node))
                if inner is not None:
                    add_edge(inner.index, target_name)
            for name in _referenced_signals(rhs):
                add_edge(name, target_name)

    return OperationGraph(graph, sites, module)
