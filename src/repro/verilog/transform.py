"""Structural AST transformation helpers used by the locking engine.

These helpers are deliberately free of any locking policy: they only know how
to clone subtrees, add ports and signals, and swap expressions.  The policy
(which operation to lock, which key bit controls it) lives in
:mod:`repro.locking`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import ast_nodes as ast
from .errors import TransformError
from .visitor import find_parent_map, walk


def clone(node: ast.Node) -> ast.Node:
    """Return a deep copy of an AST subtree.

    The copy is structural: every attribute of a node is copied, child
    nodes recursively, lists (child lists and the ``names`` of declarations)
    as new lists, and strings, numbers, booleans and ``None`` as they are.
    No memo dict is kept, so a subtree reachable twice — the parser gives
    the ports of one ``input [7:0] a, b`` declaration a shared
    :class:`~repro.verilog.ast_nodes.Range` — is copied twice; the rendered
    source is the same and nothing mutates such nodes in place.
    """
    copied = object.__new__(type(node))
    state = copied.__dict__
    for name, value in node.__dict__.items():
        if isinstance(value, ast.Node):
            value = clone(value)
        elif type(value) is list:
            value = [clone(item) if isinstance(item, ast.Node) else item
                     for item in value]
        state[name] = value
    return copied


def add_port(module: ast.Module, name: str, direction: str,
             width: Optional[int] = None, net_type: Optional[str] = None) -> ast.Port:
    """Append a new port to ``module`` and return it.

    Args:
        module: Module to modify.
        name: Port name; must not collide with an existing port.
        direction: ``input``, ``output`` or ``inout``.
        width: Bit width (``None`` or 1 produces a scalar port).
        net_type: Optional ``wire``/``reg`` qualifier.

    Raises:
        TransformError: if a port of that name already exists.
    """
    if module.find_port(name) is not None:
        raise TransformError(f"module {module.name!r} already has a port {name!r}")
    rng = None
    if width is not None and width > 1:
        rng = ast.Range(ast.IntConst(str(width - 1)), ast.IntConst("0"))
    port = ast.Port(name, direction=direction, net_type=net_type, width=rng)
    module.ports.append(port)
    return port


def add_wire(module: ast.Module, name: str, width: Optional[int] = None,
             init: Optional[ast.Expression] = None) -> ast.NetDeclaration:
    """Declare a new wire in ``module`` and return the declaration."""
    rng = None
    if width is not None and width > 1:
        rng = ast.Range(ast.IntConst(str(width - 1)), ast.IntConst("0"))
    decl = ast.NetDeclaration("wire", [name], width=rng, init=init)
    module.items.insert(_declaration_insert_index(module), decl)
    return decl


def _declaration_insert_index(module: ast.Module) -> int:
    """Index after the last declaration-ish item, before behaviour."""
    index = 0
    for position, item in enumerate(module.items):
        if isinstance(item, (ast.PortDeclaration, ast.NetDeclaration,
                             ast.ParamDeclaration, ast.GenvarDeclaration)):
            index = position + 1
    return index


def declared_names(module: ast.Module) -> List[str]:
    """Return every identifier declared in the module (ports, nets, params)."""
    names: List[str] = [port.name for port in module.ports]
    for item in module.items:
        if isinstance(item, ast.NetDeclaration):
            names.extend(item.names)
        elif isinstance(item, ast.PortDeclaration):
            names.extend(item.names)
        elif isinstance(item, ast.ParamDeclaration):
            names.append(item.name)
        elif isinstance(item, ast.GenvarDeclaration):
            names.extend(item.names)
        elif isinstance(item, ast.FunctionDeclaration):
            names.append(item.name)
    return names


def unique_name(module: ast.Module, stem: str) -> str:
    """Return a signal name derived from ``stem`` not yet used in ``module``."""
    existing = set(declared_names(module))
    if stem not in existing:
        return stem
    counter = 0
    while f"{stem}_{counter}" in existing:
        counter += 1
    return f"{stem}_{counter}"


def key_bit_expression(key_port: str, bit: int, key_width: int) -> ast.Expression:
    """Build the expression that reads bit ``bit`` of the key input port."""
    if key_width <= 1:
        return ast.Identifier(key_port)
    return ast.BitSelect(ast.Identifier(key_port), ast.IntConst(str(bit)))


def replace_expression(module: ast.Module, old: ast.Expression,
                       new: ast.Expression) -> None:
    """Replace expression ``old`` (by identity) with ``new`` inside ``module``.

    Raises:
        TransformError: if ``old`` is not found in the module.
    """
    parents = find_parent_map(module)
    parent = parents.get(id(old))
    if parent is None:
        raise TransformError("expression to replace was not found in the module")
    if not parent.replace_child(old, new):
        raise TransformError("parent node refused to replace the expression")


def swap_expression(module: ast.Module, old: ast.Expression,
                    new: ast.Expression) -> ast.Node:
    """Like :func:`replace_expression` but returns the parent node touched."""
    parents = find_parent_map(module)
    parent = parents.get(id(old))
    if parent is None:
        raise TransformError("expression to replace was not found in the module")
    if not parent.replace_child(old, new):
        raise TransformError("parent node refused to replace the expression")
    return parent


def expressions_in_module(module: ast.Module) -> List[ast.Expression]:
    """Return every expression node in the module body, in pre-order."""
    return [node for node in walk(module) if isinstance(node, ast.Expression)]


def binary_operations(module: ast.Module,
                      ops: Optional[Sequence[str]] = None) -> List[ast.BinaryOp]:
    """Return all binary operations in the module, optionally filtered by op."""
    result: List[ast.BinaryOp] = []
    wanted = set(ops) if ops is not None else None
    for node in walk(module):
        if isinstance(node, ast.BinaryOp):
            if wanted is None or node.op in wanted:
                result.append(node)
    return result


def ternary_operations(module: ast.Module) -> List[ast.TernaryOp]:
    """Return all ternary (conditional) expressions in the module."""
    return [node for node in walk(module) if isinstance(node, ast.TernaryOp)]
