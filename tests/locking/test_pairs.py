"""Unit tests for the locking-pair tables."""

import pytest

from repro.locking.pairs import (
    ORIGINAL_ASSURE_TABLE,
    SYMMETRIC_PAIR_TABLE,
    PairingError,
    PairTable,
    default_pair_table,
    make_symmetric,
)
from repro.rtlir.operations import LOCKABLE_OPERATORS


class TestSymmetricTable:
    def test_is_symmetric(self):
        assert SYMMETRIC_PAIR_TABLE.is_symmetric()
        assert SYMMETRIC_PAIR_TABLE.asymmetric_entries() == []

    def test_every_lockable_operator_has_a_pair(self):
        for op in LOCKABLE_OPERATORS:
            if op == "^~":  # normalised alias of ~^
                continue
            assert SYMMETRIC_PAIR_TABLE.has_pair(op), op

    def test_pairings_from_the_paper(self):
        # Section 3.2: "(*, /) and (/, *)"; operation example of Fig. 3: (+, -).
        assert SYMMETRIC_PAIR_TABLE.dummy_of("*") == "/"
        assert SYMMETRIC_PAIR_TABLE.dummy_of("/") == "*"
        assert SYMMETRIC_PAIR_TABLE.dummy_of("+") == "-"
        assert SYMMETRIC_PAIR_TABLE.dummy_of("-") == "+"

    def test_unordered_pairs_are_disjoint(self):
        seen = set()
        for first, second in SYMMETRIC_PAIR_TABLE.unordered_pairs():
            assert first not in seen and second not in seen
            seen.update({first, second})

    def test_pair_of(self):
        pair = SYMMETRIC_PAIR_TABLE.pair_of("-")
        assert set(pair) == {"+", "-"}

    def test_alias_normalisation(self):
        assert SYMMETRIC_PAIR_TABLE.dummy_of("^~") == SYMMETRIC_PAIR_TABLE.dummy_of("~^")

    def test_default_table_is_symmetric(self):
        assert default_pair_table() is SYMMETRIC_PAIR_TABLE


class TestOriginalTable:
    def test_is_asymmetric(self):
        assert not ORIGINAL_ASSURE_TABLE.is_symmetric()

    def test_leakage_points_from_the_paper(self):
        # "* is paired with a +, but + is also paired with -" (Section 3.2).
        assert ORIGINAL_ASSURE_TABLE.dummy_of("*") == "+"
        assert ORIGINAL_ASSURE_TABLE.dummy_of("+") == "-"
        leaks = dict(ORIGINAL_ASSURE_TABLE.asymmetric_entries())
        assert "*" in leaks
        # Leakage also exists for modulo, power, division and xor.
        for leaky_op in ("%", "**", "/", "^"):
            assert leaky_op in leaks

    def test_symmetric_subset_not_reported_as_leaky(self):
        leaks = dict(ORIGINAL_ASSURE_TABLE.asymmetric_entries())
        assert "<<" not in leaks
        assert "==" not in leaks

    def test_pair_of_follows_each_operators_own_entry(self):
        # '+' is both the real side of (+, -) and the dummy side of (*, +);
        # its own pair is the one its table entry names.
        assert ORIGINAL_ASSURE_TABLE.pair_of("+") == ("+", "-")
        assert ORIGINAL_ASSURE_TABLE.pair_of("-") == ("+", "-")
        assert ORIGINAL_ASSURE_TABLE.pair_of("*") == ("*", "+")
        assert ("*", "+") in ORIGINAL_ASSURE_TABLE.unordered_pairs()


class TestTableConstruction:
    def test_unknown_operator_rejected(self):
        with pytest.raises(PairingError):
            PairTable("bad", {"+": "noop"})

    def test_self_pairing_rejected(self):
        with pytest.raises(PairingError):
            PairTable("bad", {"+": "+"})

    def test_duplicate_membership_rejected(self):
        with pytest.raises(PairingError):
            make_symmetric([("+", "-"), ("+", "*")], name="bad")

    def test_missing_pair_lookup_raises(self):
        table = make_symmetric([("+", "-")], name="tiny")
        with pytest.raises(PairingError):
            table.dummy_of("*")
        with pytest.raises(PairingError):
            table.pair_of("*")

    def test_supported_operators(self):
        table = make_symmetric([("+", "-"), ("<<", ">>")], name="tiny")
        assert set(table.supported_operators()) == {"+", "-", "<<", ">>"}
        assert len(table.unordered_pairs()) == 2
