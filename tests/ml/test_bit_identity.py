"""Bit-identity guards for the vectorised estimators.

The decision tree, the MLP's Adam loop, AdaBoost and k-NN prediction are
vectorised.  Each must reproduce the scalar arithmetic it replaced element
for element, so the scalar versions live on here as reference oracles and
every comparison is exact (``array_equal`` or ``==``, never ``allclose``).
Two golden digests, captured from the scalar implementations, pin the MLP's
trained weights and an auto-ML leaderboard on top of that.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    AdaBoostClassifier,
    AutoMLClassifier,
    DecisionTreeClassifier,
    KNeighborsClassifier,
    MLPClassifier,
)
from repro.ml.base import check_features_labels, encode_labels, one_hot, softmax

# ----------------------------------------------------------- reference oracles


def _gini(class_counts: np.ndarray) -> float:
    total = class_counts.sum()
    if total == 0:
        return 0.0
    proportions = class_counts / total
    return float(1.0 - np.sum(proportions ** 2))


def reference_best_split(self, matrix, encoded, counts):
    """The per-position split loop the cumulative-count search replaced."""
    n_samples = matrix.shape[0]
    parent_impurity = _gini(counts)
    best = None
    best_gain = 1e-12

    candidate_features = self._rng.permutation(self.n_features_)[
        :self._n_split_features()]
    for feature in candidate_features:
        values = matrix[:, feature]
        order = np.argsort(values, kind="mergesort")
        sorted_values = values[order]
        sorted_labels = encoded[order]

        left_counts = np.zeros_like(counts)
        right_counts = counts.copy()
        for position in range(n_samples - 1):
            label = sorted_labels[position]
            left_counts[label] += 1
            right_counts[label] -= 1
            if sorted_values[position] == sorted_values[position + 1]:
                continue
            n_left = position + 1
            n_right = n_samples - n_left
            if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                continue
            impurity = (n_left * _gini(left_counts)
                        + n_right * _gini(right_counts)) / n_samples
            gain = parent_impurity - impurity
            if gain > best_gain:
                threshold = (sorted_values[position] + sorted_values[position + 1]) / 2.0
                best_gain = gain
                best = (int(feature), float(threshold), float(gain),
                        values <= threshold)
    return best


def reference_tree_proba(tree, matrix):
    """Walk the fitted tree once per row."""
    probabilities = np.zeros((matrix.shape[0], len(tree.classes_)))
    for row in range(matrix.shape[0]):
        node = 0
        while tree._feature[node] >= 0:
            if matrix[row, tree._feature[node]] <= tree._threshold[node]:
                node = tree._left[node]
            else:
                node = tree._right[node]
        probabilities[row] = tree._value[node]
    return probabilities


class _RecordingTree(DecisionTreeClassifier):
    """The shipped tree, recording every split it picks."""

    def fit(self, features, labels):
        self.splits = []
        return super().fit(features, labels)

    def _best_split(self, matrix, encoded, counts):
        split = super()._best_split(matrix, encoded, counts)
        self.splits.append(split)
        return split


class _ReferenceTree(_RecordingTree):
    """The same tree grown with the per-position split loop."""

    def _best_split(self, matrix, encoded, counts):
        split = reference_best_split(self, matrix, encoded, counts)
        split = None if split is None else split[:3]
        self.splits.append(split)
        return split


def reference_mlp_parameters(features, labels, hidden_layers, learning_rate,
                             n_epochs, batch_size, l2, random_state):
    """Train with the per-layer Adam loop the flat-buffer update replaced."""
    matrix, label_arr = check_features_labels(features, labels)
    classes, encoded = encode_labels(label_arr)
    targets = one_hot(encoded, len(classes))
    rng = np.random.default_rng(random_state)
    layer_sizes = [matrix.shape[1], *hidden_layers, len(classes)]
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))

    def gradients(batch_matrix, batch_targets):
        activations = [batch_matrix]
        hidden = batch_matrix
        for layer in range(len(weights) - 1):
            hidden = np.maximum(hidden @ weights[layer] + biases[layer], 0.0)
            activations.append(hidden)
        probabilities = softmax(hidden @ weights[-1] + biases[-1])
        delta = (probabilities - batch_targets) / batch_matrix.shape[0]
        grads_w = [np.zeros_like(w) for w in weights]
        grads_b = [np.zeros_like(b) for b in biases]
        for layer in range(len(weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ weights[layer].T
                delta = delta * (activations[layer] > 0)
        return grads_w, grads_b

    first_moment = [np.zeros_like(w) for w in weights]
    second_moment = [np.zeros_like(w) for w in weights]
    first_moment_b = [np.zeros_like(b) for b in biases]
    second_moment_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8
    step = 0
    n_samples = matrix.shape[0]
    batch_size = min(batch_size, n_samples)
    for _ in range(n_epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            batch = order[start:start + batch_size]
            grads_w, grads_b = gradients(matrix[batch], targets[batch])
            step += 1
            for layer, (grad_w, grad_b) in enumerate(zip(grads_w, grads_b)):
                grad_w = grad_w + l2 * weights[layer]
                first_moment[layer] = beta1 * first_moment[layer] + (1 - beta1) * grad_w
                second_moment[layer] = beta2 * second_moment[layer] + (1 - beta2) * grad_w ** 2
                m_hat = first_moment[layer] / (1 - beta1 ** step)
                v_hat = second_moment[layer] / (1 - beta2 ** step)
                weights[layer] -= learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)

                first_moment_b[layer] = beta1 * first_moment_b[layer] + (1 - beta1) * grad_b
                second_moment_b[layer] = beta2 * second_moment_b[layer] + (1 - beta2) * grad_b ** 2
                mb_hat = first_moment_b[layer] / (1 - beta1 ** step)
                vb_hat = second_moment_b[layer] / (1 - beta2 ** step)
                biases[layer] -= learning_rate * mb_hat / (np.sqrt(vb_hat) + epsilon)
    return weights, biases


def reference_adaboost_proba(model, matrix):
    """Accumulate each learner's vote one row at a time."""
    votes = np.zeros((matrix.shape[0], len(model.classes_)))
    for learner, weight in zip(model.estimators_, model.estimator_weights_):
        predictions = learner.predict(matrix).astype(int)
        for row, code in enumerate(predictions):
            votes[row, code] += weight
    total = votes.sum(axis=1, keepdims=True)
    total[total == 0.0] = 1.0
    return votes / total


def reference_knn_chunk_proba(model, queries):
    """Accumulate neighbour votes one row and one neighbour at a time."""
    distances = model._distances(queries)
    k = min(model.n_neighbors, model._train.shape[0])
    neighbour_indices = np.argpartition(distances, k - 1, axis=1)[:, :k]
    probabilities = np.zeros((queries.shape[0], len(model.classes_)))
    for row in range(queries.shape[0]):
        indices = neighbour_indices[row]
        if model.weights == "distance":
            weights = 1.0 / (distances[row, indices] + 1e-9)
        else:
            weights = np.ones(len(indices))
        for index, weight in zip(indices, weights):
            probabilities[row, model._encoded[index]] += weight
        probabilities[row] /= probabilities[row].sum()
    return probabilities


# --------------------------------------------------------------------- data


@st.composite
def _tree_cases(draw):
    """Small data sets with plenty of ties, plus tree hyper-parameters."""
    n_samples = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        features = rng.integers(0, draw(st.integers(1, 6)),
                                size=(n_samples, n_features)).astype(float)
    else:
        # Rounded reals: mostly distinct values, with occasional ties.
        features = np.round(rng.normal(size=(n_samples, n_features)), 1)
    labels = rng.integers(0, n_classes, size=n_samples)
    params = {
        "max_depth": draw(st.one_of(st.none(), st.integers(1, 6))),
        "min_samples_leaf": draw(st.integers(1, 5)),
        "max_features": draw(st.one_of(st.none(), st.just("sqrt"),
                                       st.integers(1, 5))),
        "random_state": draw(st.integers(0, 1000)),
    }
    return features, labels, params


def _classification_data(seed, n_samples=150, n_features=3, n_classes=3):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_samples, n_features))
    labels = (np.floor(features[:, 0] * n_classes) + rng.integers(0, 2, n_samples)) \
        % n_classes
    return features, labels.astype(int)


def _digest(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# -------------------------------------------------------------------- tests


class TestTreeMatchesPerPositionLoop:
    @given(_tree_cases())
    @settings(max_examples=150, deadline=None)
    def test_splits_probabilities_and_importances(self, case):
        features, labels, params = case
        fast = _RecordingTree(**params).fit(features, labels)
        reference = _ReferenceTree(**params).fit(features, labels)

        assert fast.splits == reference.splits
        queries = np.vstack([features, features + 0.05,
                             np.random.default_rng(0).normal(
                                 size=(10, features.shape[1]))])
        assert np.array_equal(fast.predict_proba(queries),
                              reference_tree_proba(reference, queries))
        assert np.array_equal(fast.feature_importances_,
                              reference.feature_importances_)


class TestMlpMatchesPerLayerAdam:
    @pytest.mark.parametrize("hidden_layers, batch_size, n_classes", [
        ((32, 16), 32, 2),
        ((8,), 7, 3),       # the last batch of every epoch is partial
        ((6, 5, 4), 200, 4),
    ])
    def test_trained_parameters_are_bit_equal(self, hidden_layers, batch_size,
                                              n_classes):
        features, labels = _classification_data(4, n_classes=n_classes)
        params = dict(hidden_layers=hidden_layers, learning_rate=0.01,
                      n_epochs=15, batch_size=batch_size, l2=1e-3,
                      random_state=9)
        model = MLPClassifier(**params).fit(features, labels)
        weights, biases = reference_mlp_parameters(features, labels, **params)
        for fast, reference in zip(model._weights + model._biases,
                                   weights + biases):
            assert np.array_equal(fast, reference)


class TestVotingMatchesRowLoops:
    @pytest.mark.parametrize("seed, n_classes", [(0, 2), (1, 3), (2, 5)])
    def test_adaboost_votes(self, seed, n_classes):
        features, labels = _classification_data(seed, n_classes=n_classes)
        model = AdaBoostClassifier(n_estimators=15, max_depth=2,
                                   random_state=seed).fit(features, labels)
        queries = _classification_data(seed + 10, n_samples=70)[0]
        assert np.array_equal(model.predict_proba(queries),
                              reference_adaboost_proba(model, queries))

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("n_classes", [2, 9])
    def test_knn_votes(self, weights, metric, n_classes):
        features, labels = _classification_data(3, n_classes=n_classes)
        model = KNeighborsClassifier(n_neighbors=15, metric=metric,
                                     weights=weights).fit(features, labels)
        queries = _classification_data(13, n_samples=40)[0]
        assert np.array_equal(model._chunk_proba(queries),
                              reference_knn_chunk_proba(model, queries))


#: Captured from the per-layer Adam loop and the per-position split loop.
_MLP_WEIGHTS_DIGEST = \
    "9b5b4de134692ace76c29a654ded87cbaf89339e7bde3e8717ff23ac2ee92e5b"
_LEADERBOARD_DIGEST = \
    "49c8141e5adea3538a5e1e828e55de71917e52e697c753242d62c8530e8f67c8"


class TestGoldenDigests:
    def test_mlp_final_weights(self):
        """Digest of the trained weights rounded to 1e-10.

        The exact bits of a BLAS ``matmul`` can depend on the kernel the
        library picks for the CPU, so the digest covers the rounded
        weights (every weight here sits at least 1e-12 from a rounding
        boundary).  Exact bit identity on the running host is guarded by
        ``TestMlpMatchesPerLayerAdam``.
        """
        rng = np.random.default_rng(2022)
        features = rng.normal(size=(120, 3))
        labels = (features[:, 0] + features[:, 1] * features[:, 2] > 0
                  ).astype(int) + (features[:, 2] > 1)
        model = MLPClassifier(hidden_layers=(8, 4), n_epochs=30,
                              random_state=5).fit(features, labels)
        rounded = [np.round(array, 10)
                   for array in model._weights + model._biases]
        assert _digest(rounded) == _MLP_WEIGHTS_DIGEST

    def test_automl_leaderboard_scores(self):
        rng = np.random.default_rng(13)
        features = rng.integers(0, 6, size=(200, 2)).astype(float)
        labels = (((features[:, 0] + features[:, 1]) % 3 == 0)
                  ^ (rng.random(200) < 0.15)).astype(int)
        search = AutoMLClassifier(deterministic=True, time_budget=12,
                                  random_state=3).fit(features, labels)
        board = [(result.spec.name, tuple(result.scores))
                 for result in search.leaderboard_]
        assert len(board) == 12
        assert search.best_model_name == "decision_tree_d8"
        assert hashlib.sha256(repr(board).encode()).hexdigest() \
            == _LEADERBOARD_DIGEST
