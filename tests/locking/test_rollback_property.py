"""Property test: any sequence of locking primitives undone by rollback().

The SnapShot training loop keeps one session per training set, relocks its
target in place and rolls each round back, so ``LockingSession.rollback``
must restore a locked design exactly -- its netlist, its fingerprint (the
plan-cache key), its key records, the width of its key port and the order
of its operation sites -- and must leave the session equal to a freshly
opened one, so the next round locks exactly as a fresh session would.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import load_benchmark
from repro.locking import AssureLocker, LockingError, LockingSession
from repro.locking.assure import _lockable_branches, _lockable_constants

#: ``(primitive, choice)`` steps; ``choice`` picks among the live candidates.
_STEPS = st.lists(
    st.tuples(st.sampled_from(("pair", "branch", "constant")),
              st.integers(min_value=0, max_value=2 ** 16)),
    min_size=1, max_size=10)

_LOCKED = {}


def _locked_benchmark(name, divisor):
    """A fresh copy of a benchmark whose operations are ASSURE-locked up to
    ``1/divisor`` of them (locked once per argument pair).  Lightly locked
    designs leave pairs unaffected, which new locks then mark."""
    if (name, divisor) not in _LOCKED:
        design = load_benchmark(name, scale=0.3, seed=4)
        _LOCKED[name, divisor] = AssureLocker(
            "serial", rng=random.Random(2)).lock(
                design, max(1, design.num_operations() // divisor)).design
    return _LOCKED[name, divisor].copy()


def _key_port_width(design):
    port = design.top.find_port(design.key_port)
    return (port.width.msb.as_int(), port.width.lsb.as_int())


def _site_order(design):
    return [(id(site.node), site.op, id(site.parent), site.index, site.depth,
             site.in_locked_branch, site.key_controlled)
            for site in design.sites()]


def _registry(session):
    """Every live reference, identity-compared like ``_site_order``."""
    return [(id(ref.node), ref.op, id(ref.parent), ref.lock_count,
             ref.is_dummy) for ref in session.all_ops()]


def _by_type(session):
    return {op: [id(ref.node) for ref in session.ops_of_type(op)]
            for op in session.pair_table.supported_operators()}


def _assert_same_odt(odt, fresh):
    assert odt._counts == fresh._counts
    assert odt._unpaired == fresh._unpaired
    assert odt.affected_pairs() == fresh.affected_pairs()


def _apply(session, primitive, choice):
    """Apply one primitive to the ``choice``-th live candidate, if any."""
    design = session.design
    if primitive == "pair":
        refs = [ref for ref in session.all_ops()
                if session.pair_table.has_pair(ref.op)]
        session.add_pair(refs[choice % len(refs)])
    elif primitive == "branch":
        branches = _lockable_branches(design)
        if branches:
            session.lock_branch(branches[choice % len(branches)])
    else:
        constants = list(_lockable_constants(design))
        if constants:
            parent, constant = constants[choice % len(constants)]
            try:
                session.lock_constant(parent, constant)
            except LockingError:
                pass  # x/z literals cannot move into the key


class TestRollbackIsIdentity:
    @given(name=st.sampled_from(("MD5", "SASC", "I2C_SL")),
           divisor=st.sampled_from((2, 16)),
           steps=_STEPS, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_rollback_restores_locked_benchmark(self, name, divisor, steps,
                                                seed):
        design = _locked_benchmark(name, divisor)
        text = design.to_verilog()
        fingerprint = design.fingerprint()
        key_bits = list(design.key_bits)
        key_records = copy.deepcopy(design.key_bits)
        port_width = _key_port_width(design)
        sites = _site_order(design)

        session = LockingSession(design, rng=random.Random(seed))
        for primitive, choice in steps:
            _apply(session, primitive, choice)
        # The memoized fingerprint must not survive the mutations, or a
        # stale compiled plan would be served for the relocked netlist.
        assert design.fingerprint() != fingerprint
        assert design.key_width > len(key_bits)

        session.rollback()
        assert session.actions == []
        assert design.to_verilog() == text
        assert design.fingerprint() == fingerprint
        assert design.key_bits == key_records
        assert all(a is b for a, b in zip(design.key_bits, key_bits))
        assert design.correct_key == [bit.correct_value for bit in key_records]
        assert _key_port_width(design) == port_width
        assert _site_order(design) == sites

        # The rolled-back session equals a fresh one, ODT marks included ...
        fresh = LockingSession(design)
        assert _registry(session) == _registry(fresh)
        assert _by_type(session) == _by_type(fresh)
        _assert_same_odt(session.odt, fresh.odt)

        # ... so locking it again gives what a fresh session gives.
        budget = max(1, len(key_bits) // 2)
        session.rng.seed(seed + 1)
        AssureLocker("random", rng=session.rng,
                     track_metrics=False).lock_session(session, budget)
        reused_text = design.to_verilog()
        reused_records = copy.deepcopy(design.key_bits)
        session.rollback()
        locker = AssureLocker("random", rng=random.Random(seed + 1),
                              track_metrics=False)
        locker.lock_session(locker.open_session(design), budget)
        assert design.to_verilog() == reused_text
        assert design.key_bits == reused_records
