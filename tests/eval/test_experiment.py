"""Unit tests for constructing the evaluated lockers by algorithm name."""

import random

import pytest

from repro.api import make_locker
from repro.locking import AssureLocker, ERALocker, GreedyLocker, HRALocker


class TestMakeLocker:
    def test_known_algorithms(self):
        rng = random.Random(0)
        assert isinstance(make_locker("assure", rng), AssureLocker)
        assert make_locker("assure", rng).selection == "serial"
        assert make_locker("assure-random", rng).selection == "random"
        assert isinstance(make_locker("hra", rng), HRALocker)
        assert isinstance(make_locker("greedy", rng), GreedyLocker)
        assert isinstance(make_locker("era", rng), ERALocker)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_locker("magic", random.Random(0))
