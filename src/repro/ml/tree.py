"""CART-style decision tree classifier.

The tree grows greedily on the Gini impurity with axis-aligned threshold
splits, supports depth / minimum-sample constraints, optional per-split
feature subsampling (used by the random forest), and exposes impurity-based
feature importances.

Split search is one vectorised pass per candidate feature.  The node's
labels are one-hot encoded in feature-sorted order and ``cumsum`` turns
them into the class counts left of every cut position (the right counts are
the node counts minus those).  The Gini impurity of every prefix and suffix
is ``1 - sum((counts / n) ** 2)`` along the class axis, the same elementwise
arithmetic as a scalar per-node Gini, so each candidate's gain is
bit-equal to a per-position loop.  Cuts between tied values and cuts that
break ``min_samples_leaf`` are skipped; the first position with the largest
gain wins, and a later feature only wins with a strictly larger gain.

The fitted tree is stored as flat node arrays (preorder), and prediction
routes all rows down the tree together, one array step per level.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Estimator, check_features, check_features_labels, encode_labels

#: ``feature`` value of a leaf node.
_LEAF = -1


class DecisionTreeClassifier(Estimator):
    """Greedy CART decision tree.

    Args:
        max_depth: Maximum tree depth (None for unlimited).
        min_samples_split: Minimum samples required to attempt a split.
        min_samples_leaf: Minimum samples required in each child.
        max_features: Number of features considered per split (None = all;
            ``"sqrt"`` = square root of the feature count).
        random_state: Seed controlling the feature subsampling.
    """

    def __init__(self, max_depth: Optional[int] = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 random_state: Optional[int] = None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # ---------------------------------------------------------------- fitting

    def fit(self, features, labels) -> "DecisionTreeClassifier":
        """Grow the tree on the training data."""
        matrix, label_arr = check_features_labels(features, labels)
        self.classes_, encoded = encode_labels(label_arr)
        self.n_features_ = matrix.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._n_candidates = self._n_split_features()
        self._identity = np.eye(len(self.classes_))
        self.feature_importances_ = np.zeros(self.n_features_)
        # Preorder node arrays; children are filled in once they are grown.
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._grow(matrix, encoded, depth=0)
        self._feature = np.array(self._feature, dtype=np.intp)
        self._threshold = np.array(self._threshold)
        self._left = np.array(self._left, dtype=np.intp)
        self._right = np.array(self._right, dtype=np.intp)
        self._value = np.array(self._value)
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ = self.feature_importances_ / total
        return self

    def _n_split_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        return max(1, min(int(self.max_features), self.n_features_))

    def _grow(self, matrix: np.ndarray, encoded: np.ndarray, depth: int) -> int:
        """Grow the subtree of one node and return the node's index."""
        counts = np.bincount(encoded, minlength=len(self.classes_)).astype(float)
        node = len(self._feature)
        self._feature.append(_LEAF)
        self._threshold.append(0.0)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._value.append(counts / counts.sum())

        if (self.max_depth is not None and depth >= self.max_depth) \
                or matrix.shape[0] < self.min_samples_split \
                or np.count_nonzero(counts) == 1:
            return node

        split = self._best_split(matrix, encoded, counts)
        if split is None:
            return node
        feature, threshold, gain = split
        self.feature_importances_[feature] += gain * matrix.shape[0]
        left_mask = matrix[:, feature] <= threshold
        right_mask = ~left_mask

        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._grow(matrix[left_mask], encoded[left_mask],
                                      depth + 1)
        self._right[node] = self._grow(matrix[right_mask], encoded[right_mask],
                                       depth + 1)
        return node

    def _best_split(self, matrix: np.ndarray, encoded: np.ndarray,
                    counts: np.ndarray):
        """Return ``(feature, threshold, gain)`` of the best cut, or None."""
        n_samples = matrix.shape[0]
        parent_impurity = 1.0 - ((counts / n_samples) ** 2).sum()
        best = None
        best_gain = 1e-12
        lowest = self.min_samples_leaf - 1
        highest = n_samples - self.min_samples_leaf - 1

        candidate_features = self._rng.permutation(self.n_features_)[
            :self._n_candidates]
        for feature in candidate_features:
            values = matrix[:, feature]
            order = values.argsort(kind="mergesort")
            sorted_values = values[order]
            # Cut ``p`` puts sorted samples 0..p on the left.
            cuts = (sorted_values[:-1] != sorted_values[1:]).nonzero()[0]
            cuts = cuts[(cuts >= lowest) & (cuts <= highest)]
            if cuts.size == 0:
                continue
            left_counts = self._identity[encoded[order]].cumsum(axis=0)[cuts]
            right_counts = counts - left_counts
            n_left = cuts + 1.0
            n_right = n_samples - n_left
            left_gini = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
            right_gini = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
            gains = parent_impurity - (n_left * left_gini
                                       + n_right * right_gini) / n_samples
            winner = gains.argmax()
            if gains[winner] > best_gain:
                position = cuts[winner]
                threshold = (sorted_values[position] + sorted_values[position + 1]) / 2.0
                best_gain = gains[winner]
                best = (int(feature), float(threshold), float(best_gain))
        return best

    # ------------------------------------------------------------- prediction

    def predict_proba(self, features) -> np.ndarray:
        """Return class probabilities from the reached leaves."""
        self._check_fitted("_value")
        matrix = check_features(features, n_features=self.n_features_)
        nodes = np.zeros(matrix.shape[0], dtype=np.intp)
        rows = np.arange(matrix.shape[0])
        while rows.size:
            current = nodes[rows]
            feature = self._feature[current]
            inner = feature != _LEAF
            rows, current, feature = rows[inner], current[inner], feature[inner]
            go_left = matrix[rows, feature] <= self._threshold[current]
            nodes[rows] = np.where(go_left, self._left[current],
                                   self._right[current])
        return self._value[nodes]

    def depth(self) -> int:
        """Return the depth of the fitted tree."""
        self._check_fitted("_value")
        depths = np.zeros(self._feature.size, dtype=int)
        for node in np.flatnonzero(self._feature != _LEAF):  # parents first
            depths[self._left[node]] = depths[self._right[node]] = depths[node] + 1
        return int(depths.max())

    def n_leaves(self) -> int:
        """Return the number of leaves of the fitted tree."""
        self._check_fitted("_value")
        return int(np.count_nonzero(self._feature == _LEAF))
