"""Unit tests for training-set construction by self-referencing."""

import hashlib
import random

import numpy as np
import pytest

from repro.attacks import LocalityExtractor, TrainingSetBuilder
from repro.bench import load_benchmark
from repro.locking import AssureLocker, ERALocker, LockingSession


class TestTrainingSetBuilder:
    def test_unlocked_target_rejected(self, mixer_design, rng):
        with pytest.raises(ValueError):
            TrainingSetBuilder(rng=rng).build(mixer_design)

    def test_invalid_round_count(self):
        with pytest.raises(ValueError):
            TrainingSetBuilder(rounds=0)

    def test_training_set_size(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 5).design
        training = TrainingSetBuilder(rounds=6, rng=random.Random(1)).build(target)
        assert training.rounds == 6
        assert training.bits_per_round == 5
        assert training.size == 30
        assert training.features.shape == (30, 2)
        assert training.labels.shape == (30,)

    def test_explicit_relock_budget(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 3).design
        training = TrainingSetBuilder(rounds=4, relock_budget=2,
                                      rng=random.Random(2)).build(target)
        assert training.size == 8

    def test_target_not_mutated(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        text_before = target.to_verilog()
        TrainingSetBuilder(rounds=3, rng=random.Random(3)).build(target)
        assert target.to_verilog() == text_before
        assert target.key_width == 4

    def test_labels_only_cover_new_bits(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        training = TrainingSetBuilder(rounds=5, rng=random.Random(4)).build(target)
        # Training labels are the relocking keys, which are random: over 20
        # samples both values should appear with overwhelming probability.
        assert set(np.unique(training.labels)) == {0, 1}
        assert 0.0 < training.label_balance() < 1.0

    def test_feature_space_matches_extractor(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 3).design
        extractor = LocalityExtractor("extended")
        training = TrainingSetBuilder(extractor=extractor, rounds=2,
                                      rng=random.Random(5)).build(target)
        assert training.features.shape[1] == extractor.n_features

    def test_build_survives_a_raising_progress_hook(self, mixer_design, rng,
                                                    caplog):
        """Regression: an observer callback must not abort the rounds."""
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        calls = []

        def bad_hook(done, rounds):
            calls.append(done)
            raise RuntimeError("observer bug")

        with caplog.at_level("WARNING"):
            training = TrainingSetBuilder(
                rounds=3, rng=random.Random(6)).build(target,
                                                      progress=bad_hook)
        assert training.rounds == 3
        assert calls == [1, 2, 3]
        assert "progress hook raised" in caplog.text


class TestSignalContent:
    def test_imbalanced_target_produces_biased_observations(self, plus_chain_design):
        # On a +-only design locked by plain ASSURE the '+' appears as the
        # real operation in the training set far more often than '-'.
        target = AssureLocker("serial", rng=random.Random(0)).lock(
            plus_chain_design, 4).design
        training = TrainingSetBuilder(rounds=20, rng=random.Random(1)).build(target)
        from repro.rtlir import encode_operator
        plus, minus = encode_operator("+"), encode_operator("-")
        real_ops = np.where(training.labels == 1,
                            training.features[:, 0], training.features[:, 1])
        plus_fraction = np.mean(real_ops == plus)
        assert plus_fraction > 0.55

    def test_era_balanced_target_produces_contradictory_observations(
            self, plus_chain_design):
        target = ERALocker(rng=random.Random(0)).lock(plus_chain_design, 6).design
        training = TrainingSetBuilder(rounds=20, rng=random.Random(1)).build(target)
        from repro.rtlir import encode_operator
        plus = encode_operator("+")
        real_ops = np.where(training.labels == 1,
                            training.features[:, 0], training.features[:, 1])
        plus_fraction = np.mean(real_ops == plus)
        assert 0.35 < plus_fraction < 0.65


#: Digests of ``(features, labels)`` built by the copy-per-round relocking
#: loop this builder replaced: the in-place lock → extract → rollback rounds
#: must reproduce them bit for bit.  Keyed by (benchmark, locker, features).
_GOLDEN_DIGESTS = {
    ("MD5", "assure", "pair"): "674039595b945a870c1659992eff894a",
    ("MD5", "assure", "behavioral"): "3a22cff5f11a2bc645bc9ba6c5f3dd19",
    ("MD5", "era", "pair"): "61bab1041b02a035696d0dcba2e88ed2",
    ("MD5", "era", "behavioral"): "30483c876dd65e37613e0549246126b0",
    ("FIR", "assure", "pair"): "c27f7ca4ca6b53ff90e75c29bdf50beb",
    ("FIR", "assure", "behavioral"): "3c952f2b87fcdbf1083a1308d512c1ce",
    ("FIR", "era", "pair"): "040baf525f4d38bf04f09dd2efa3ab29",
    ("FIR", "era", "behavioral"): "e72b8553922ce69dc5d64e7e9428ba4d",
    ("SHA256", "assure", "pair"): "9b476b06b2a4cbf6f6cae993c427bf8e",
    ("SHA256", "assure", "behavioral"): "c2173c0fd4e9706604dadee84373d8d6",
    ("SHA256", "era", "pair"): "8d6678150e2e916a7e728b50c4876d85",
    ("SHA256", "era", "behavioral"): "035b74a199214c90c1e8a506d121bd96",
}


def _locked_target(benchmark, locker):
    design = load_benchmark(benchmark, scale=0.2, seed=11)
    budget = max(1, design.num_operations() * 3 // 4)
    if locker == "assure":
        return AssureLocker("serial", rng=random.Random(3)).lock(
            design, budget).design
    return ERALocker(rng=random.Random(3)).lock(design, budget).design


def _digest(training):
    features = np.ascontiguousarray(training.features, dtype=np.float64)
    labels = np.ascontiguousarray(training.labels, dtype=np.int64)
    digest = hashlib.sha256()
    digest.update(repr((features.shape, labels.shape)).encode())
    digest.update(features.tobytes())
    digest.update(labels.tobytes())
    return digest.hexdigest()[:32]


class _FailingExtractor(LocalityExtractor):
    """Extractor whose ``extract_matrix`` raises on call ``fail_on``."""

    def __init__(self, fail_on):
        super().__init__("pair")
        self.fail_on = fail_on
        self.calls = 0

    def extract_matrix(self, design, key_indices=None):
        self.calls += 1
        if self.calls == self.fail_on:
            raise RuntimeError("extraction failed")
        return super().extract_matrix(design, key_indices)


class TestInPlaceRelocking:
    @pytest.mark.parametrize("case", sorted(_GOLDEN_DIGESTS))
    def test_training_set_matches_copy_path(self, case):
        benchmark, locker, feature_set = case
        target = _locked_target(benchmark, locker)
        training = TrainingSetBuilder(
            extractor=LocalityExtractor(feature_set), rounds=4,
            rng=random.Random(5)).build(target)
        assert _digest(training) == _GOLDEN_DIGESTS[case]

    @pytest.mark.parametrize("locker", ["assure", "era"])
    def test_build_leaves_target_unchanged(self, locker):
        target = _locked_target("MD5", locker)
        text, fingerprint = target.to_verilog(), target.fingerprint()
        key = target.correct_key
        TrainingSetBuilder(rounds=5, rng=random.Random(8)).build(target)
        assert target.to_verilog() == text
        assert target.fingerprint() == fingerprint
        assert target.correct_key == key

    def test_one_session_serves_every_round(self, monkeypatch):
        target = _locked_target("MD5", "assure")
        opened = []
        original_init = LockingSession.__init__

        def counting_init(self, *args, **kwargs):
            opened.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(LockingSession, "__init__", counting_init)
        TrainingSetBuilder(rounds=6, rng=random.Random(4)).build(target)
        assert len(opened) == 1

    @pytest.mark.parametrize("fail_on", [1, 3])
    def test_raising_extractor_propagates_and_restores_target(self, fail_on):
        target = _locked_target("FIR", "assure")
        text, fingerprint = target.to_verilog(), target.fingerprint()
        key_bits = list(target.key_bits)
        extractor = _FailingExtractor(fail_on)
        with pytest.raises(RuntimeError, match="extraction failed"):
            TrainingSetBuilder(extractor=extractor, rounds=4,
                               rng=random.Random(9)).build(target)
        assert extractor.calls == fail_on
        assert target.to_verilog() == text
        assert target.fingerprint() == fingerprint
        assert target.key_bits == key_bits
