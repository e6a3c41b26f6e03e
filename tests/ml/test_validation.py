"""Unit tests for dataset splitting and cross-validation."""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, KFold, cross_val_score, train_test_split


@pytest.fixture
def dataset():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(80, 3))
    labels = (features[:, 0] > 0).astype(int)
    return features, labels


class TestTrainTestSplit:
    def test_sizes(self, dataset):
        features, labels = dataset
        train_x, test_x, train_y, test_y = train_test_split(
            features, labels, test_fraction=0.25, rng=np.random.default_rng(1))
        assert len(test_x) == 20
        assert len(train_x) == 60
        assert len(train_y) == len(train_x)
        assert len(test_y) == len(test_x)

    def test_no_overlap_and_full_coverage(self, dataset):
        features, labels = dataset
        train_x, test_x, _, _ = train_test_split(
            features, labels, 0.25, rng=np.random.default_rng(2))
        assert len(train_x) + len(test_x) == len(features)

    def test_stratified_preserves_ratio(self):
        labels = np.array([0] * 90 + [1] * 10)
        features = np.arange(100).reshape(-1, 1)
        _, _, _, test_y = train_test_split(features, labels, 0.2,
                                           rng=np.random.default_rng(3),
                                           stratify=True)
        assert 0 < np.mean(test_y) < 0.2

    def test_invalid_fraction(self, dataset):
        features, labels = dataset
        with pytest.raises(ValueError):
            train_test_split(features, labels, 0.0)
        with pytest.raises(ValueError):
            train_test_split(features, labels, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            train_test_split([[1], [2]], [0], 0.5)


class TestKFold:
    def test_folds_partition_the_data(self):
        splitter = KFold(n_splits=4, rng=np.random.default_rng(0))
        seen = []
        for train_indices, test_indices in splitter.split(20):
            assert len(np.intersect1d(train_indices, test_indices)) == 0
            assert len(train_indices) + len(test_indices) == 20
            seen.extend(test_indices.tolist())
        assert sorted(seen) == list(range(20))

    def test_number_of_folds(self):
        splitter = KFold(n_splits=5, rng=np.random.default_rng(0))
        assert len(list(splitter.split(50))) == 5

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(3))

    def test_invalid_split_count(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_unshuffled_folds_are_contiguous(self):
        splitter = KFold(n_splits=2, shuffle=False)
        folds = list(splitter.split(10))
        assert folds[0][1].tolist() == [0, 1, 2, 3, 4]


class TestCrossValScore:
    def test_scores_reflect_learnable_data(self, dataset):
        features, labels = dataset
        scores = cross_val_score(DecisionTreeClassifier(max_depth=3),
                                 features, labels, n_splits=4,
                                 rng=np.random.default_rng(1))
        assert scores.shape == (4,)
        assert scores.mean() > 0.8

    def test_model_instance_left_unfitted(self, dataset):
        features, labels = dataset
        model = DecisionTreeClassifier(max_depth=3)
        cross_val_score(model, features, labels, n_splits=3,
                        rng=np.random.default_rng(2))
        assert not hasattr(model, "classes_")
        assert not hasattr(model, "_value")
