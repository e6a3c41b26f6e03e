"""Component registries: registration, lookup, aliases, plug-in flow."""

import random

import pytest

from repro.api import (
    ATTACKS,
    LOCKERS,
    METRICS,
    Registry,
    UnknownComponentError,
    attack_names,
    locker_names,
    make_attack,
    make_locker,
    make_metric,
    metric_names,
    register_locker,
)


class TestBuiltins:
    def test_builtin_lockers_registered(self):
        names = locker_names()
        assert {"assure", "assure-random", "hra", "greedy", "era"} <= set(names)
        assert "assure-serial" in locker_names(include_aliases=True)

    def test_builtin_attacks_registered(self):
        names = attack_names()
        assert {"snapshot", "majority", "random", "pair-asymmetry"} <= set(names)

    def test_builtin_metrics_registered(self):
        names = metric_names()
        assert {"avalanche", "corruption", "key-sensitivity"} <= set(names)

    def test_make_locker_constructs_by_name(self):
        from repro.locking import (AssureLocker, ERALocker, GreedyLocker,
                                   HRALocker)

        rng = random.Random(0)
        assert isinstance(make_locker("era", rng), ERALocker)
        assert make_locker("assure", rng).selection == "serial"
        assert make_locker("assure-serial", rng).selection == "serial"
        assert make_locker("assure-random", rng).selection == "random"
        assert isinstance(make_locker("assure", rng), AssureLocker)
        assert isinstance(make_locker("hra", rng), HRALocker)
        assert isinstance(make_locker("greedy", rng), GreedyLocker)

    def test_make_attack_constructs_by_name(self):
        from repro.attacks import MajorityVoteAttack, SnapShotAttack

        rng = random.Random(0)
        attack = make_attack("snapshot", rng, rounds=7, time_budget=2.0)
        assert isinstance(attack, SnapShotAttack)
        assert attack.rounds == 7 and attack.time_budget == 2.0
        assert isinstance(make_attack("majority", rng, rounds=3),
                          MajorityVoteAttack)

    def test_attack_factories_ignore_foreign_options(self):
        # One declarative options surface drives heterogeneous attacks.
        rng = random.Random(0)
        attack = make_attack("random", rng, rounds=9, time_budget=1.0,
                             feature_set="pair", functional_vectors=4)
        assert attack.attack is not None

    def test_make_metric_returns_callable(self):
        assert callable(make_metric("avalanche"))

    def test_unknown_names_raise_value_error(self):
        with pytest.raises(UnknownComponentError):
            make_locker("magic", random.Random(0))
        with pytest.raises(ValueError):
            make_attack("magic", random.Random(0))
        with pytest.raises(ValueError):
            make_metric("magic")

    def test_unknown_error_lists_registered_names(self):
        with pytest.raises(UnknownComponentError, match="era"):
            LOCKERS.get("nope")


class TestRegistryMechanics:
    def test_third_party_plugin_roundtrip(self):
        calls = []

        @register_locker("test-plugin-locker")
        def factory(rng, pair_table=None, track_metrics=False, **options):
            calls.append(options)
            return "locker-instance"

        try:
            assert "test-plugin-locker" in LOCKERS
            assert make_locker("test-plugin-locker", random.Random(0),
                               extra=1) == "locker-instance"
            assert calls == [{"extra": 1}]
        finally:
            LOCKERS.unregister("test-plugin-locker")
        assert "test-plugin-locker" not in LOCKERS

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", lambda: None)
        with pytest.raises(ValueError):
            registry.register("a", lambda: None)
        registry.register("a", lambda: "replaced", replace=True)
        assert registry.get("a")() == "replaced"

    def test_aliases_resolve_but_are_not_canonical(self):
        registry = Registry("thing")
        registry.register("canonical", lambda: 1, aliases=("alias",))
        assert registry.get("alias")() == 1
        assert registry.names() == ["canonical"]
        assert registry.all_names() == ["alias", "canonical"]
        registry.unregister("canonical")
        assert "alias" not in registry

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Registry("thing").register("", lambda: None)

    def test_registries_are_distinct(self):
        assert LOCKERS is not ATTACKS is not METRICS
        assert "snapshot" not in LOCKERS
        assert "era" not in ATTACKS
