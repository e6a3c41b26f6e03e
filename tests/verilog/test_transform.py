"""Unit tests for the structural transformation helpers."""

import random
from copy import deepcopy

import pytest

from repro.bench import benchmark_names, load_benchmark
from repro.locking import AssureLocker
from repro.verilog import ast
from repro.verilog.codegen import generate
from repro.verilog.errors import TransformError
from repro.verilog.parser import parse, parse_module
from repro.verilog.transform import (
    add_port,
    add_wire,
    binary_operations,
    clone,
    declared_names,
    key_bit_expression,
    replace_expression,
    ternary_operations,
    unique_name,
)

from ..conftest import MIXER_SOURCE


def _benchmark_source(name, locked):
    design = load_benchmark(name, scale=0.2)
    if locked:
        design = AssureLocker("serial", rng=random.Random(1)).lock(
            design, max(1, design.num_operations() // 2)).design
    return design.source


class TestClone:
    def test_clone_is_deep(self):
        module = parse_module(MIXER_SOURCE)
        copy = clone(module)
        assert copy is not module
        copy.items[0].names[0] = "renamed"
        assert module.items[0].names[0] != "renamed"

    @pytest.mark.parametrize("locked", [False, True],
                             ids=["unlocked", "locked"])
    @pytest.mark.parametrize("name", benchmark_names())
    def test_clone_matches_deepcopy(self, name, locked):
        source = _benchmark_source(name, locked)
        copied = clone(source)
        oracle = deepcopy(source)
        assert generate(copied) == generate(oracle) == generate(source)
        assert ([type(node) for node in copied.iter_tree()]
                == [type(node) for node in oracle.iter_tree()])

        original_nodes = {id(node) for node in source.iter_tree()}
        original_lists = {id(value) for node in source.iter_tree()
                          for value in vars(node).values()
                          if isinstance(value, list)}
        for node in copied.iter_tree():
            assert id(node) not in original_nodes
            for value in vars(node).values():
                if isinstance(value, list):
                    assert id(value) not in original_lists


class TestPortsAndWires:
    def test_add_port_scalar_and_vector(self):
        module = parse_module("module m (input a); endmodule")
        add_port(module, "key", "input", width=4)
        add_port(module, "flag", "output")
        assert module.port_names() == ["a", "key", "flag"]
        assert module.find_port("key").width.width() == 4
        assert module.find_port("flag").width is None
        text = generate(module)
        assert "input [3:0] key" in text

    def test_add_duplicate_port_raises(self):
        module = parse_module("module m (input a); endmodule")
        with pytest.raises(TransformError):
            add_port(module, "a", "input")

    def test_add_wire_inserted_after_declarations(self):
        module = parse_module(MIXER_SOURCE)
        add_wire(module, "new_sig", width=8)
        decl_index = next(i for i, item in enumerate(module.items)
                          if isinstance(item, ast.NetDeclaration)
                          and "new_sig" in item.names)
        always_index = next(i for i, item in enumerate(module.items)
                            if isinstance(item, ast.AlwaysBlock))
        assert decl_index < always_index

    def test_declared_names_and_unique_name(self):
        module = parse_module(MIXER_SOURCE)
        names = declared_names(module)
        assert "t1" in names and "clk" in names
        assert unique_name(module, "t1") != "t1"
        assert unique_name(module, "fresh") == "fresh"


class TestExpressions:
    def test_key_bit_expression_forms(self):
        scalar = key_bit_expression("k", 0, key_width=1)
        assert isinstance(scalar, ast.Identifier)
        vector = key_bit_expression("k", 3, key_width=8)
        assert isinstance(vector, ast.BitSelect)
        assert generate(vector) == "k[3]"

    def test_replace_expression(self):
        module = parse_module(MIXER_SOURCE)
        target = binary_operations(module, ops=["*"])[0]
        replacement = ast.TernaryOp(ast.Identifier("k"),
                                    clone(target),
                                    ast.BinaryOp("/", clone(target.left),
                                                 clone(target.right)))
        replace_expression(module, target, replacement)
        assert len(ternary_operations(module)) == 1
        assert "(k ? (a * c) : (a / c))" in generate(module)

    def test_replace_expression_missing_raises(self):
        module = parse_module(MIXER_SOURCE)
        stray = ast.BinaryOp("+", ast.Identifier("x"), ast.Identifier("y"))
        with pytest.raises(TransformError):
            replace_expression(module, stray, ast.Identifier("z"))

    def test_binary_operations_filter(self):
        module = parse_module(MIXER_SOURCE)
        all_ops = binary_operations(module)
        adds = binary_operations(module, ops=["+"])
        assert len(adds) == 3
        assert len(all_ops) > len(adds)

    def test_ternary_operations_initially_empty(self):
        module = parse_module(MIXER_SOURCE)
        assert ternary_operations(module) == []
