"""A small multi-layer perceptron classifier trained with Adam.

This mirrors the "multi-layer perceptron" branch that the SnapShot paper's
neural attack uses, scaled down to the tiny locality feature space of the RTL
adaptation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import (
    Estimator,
    check_features,
    check_features_labels,
    encode_labels,
    one_hot,
    softmax,
)


def _layer_views(buffer: np.ndarray, shapes: Sequence[Tuple[int, int]]
                 ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Split a flat buffer into per-layer weight and bias views.

    The weights of every layer come first, in layer order, then the biases.
    """
    weights: List[np.ndarray] = []
    biases: List[np.ndarray] = []
    weight_at = 0
    bias_at = sum(fan_in * fan_out for fan_in, fan_out in shapes)
    for fan_in, fan_out in shapes:
        size = fan_in * fan_out
        weights.append(buffer[weight_at:weight_at + size].reshape(fan_in, fan_out))
        biases.append(buffer[bias_at:bias_at + fan_out])
        weight_at += size
        bias_at += fan_out
    return weights, biases


class MLPClassifier(Estimator):
    """Fully connected network with ReLU hidden layers and softmax output.

    Args:
        hidden_layers: Sizes of the hidden layers.
        learning_rate: Adam step size.
        n_epochs: Training epochs over the full data set.
        batch_size: Mini-batch size (capped at the data set size).
        l2: L2 weight decay.
        random_state: Seed for initialisation and batch shuffling.
    """

    def __init__(self, hidden_layers: Sequence[int] = (32, 16),
                 learning_rate: float = 0.01, n_epochs: int = 200,
                 batch_size: int = 32, l2: float = 1e-4,
                 random_state: Optional[int] = None) -> None:
        self.hidden_layers = tuple(hidden_layers)
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.random_state = random_state

    # ---------------------------------------------------------------- fitting

    def fit(self, features, labels) -> "MLPClassifier":
        """Train the network with Adam on the cross-entropy loss."""
        matrix, label_arr = check_features_labels(features, labels)
        self.classes_, encoded = encode_labels(label_arr)
        n_classes = len(self.classes_)
        targets = one_hot(encoded, n_classes)
        self.n_features_ = matrix.shape[1]

        rng = np.random.default_rng(self.random_state)
        layer_sizes = [self.n_features_, *self.hidden_layers, n_classes]
        shapes = list(zip(layer_sizes[:-1], layer_sizes[1:]))
        # All weights (first) and biases (last) live in one flat buffer, and
        # the gradients in a matching one, so Adam updates every layer with a
        # handful of whole-buffer operations.
        n_weights = sum(fan_in * fan_out for fan_in, fan_out in shapes)
        parameters = np.zeros(n_weights + sum(layer_sizes[1:]))
        gradients = np.zeros_like(parameters)
        self._weights, self._biases = _layer_views(parameters, shapes)
        grad_layers = _layer_views(gradients, shapes)
        for weight, (fan_in, fan_out) in zip(self._weights, shapes):
            weight[...] = rng.normal(scale=np.sqrt(2.0 / fan_in),
                                     size=(fan_in, fan_out))

        weights, grad_weights = parameters[:n_weights], gradients[:n_weights]
        first_moment = np.zeros_like(parameters)
        second_moment = np.zeros_like(parameters)
        beta1, beta2, epsilon = 0.9, 0.999, 1e-8
        step = 0

        n_samples = matrix.shape[0]
        batch_size = min(self.batch_size, n_samples)

        for _ in range(self.n_epochs):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, batch_size):
                batch = order[start:start + batch_size]
                self._gradients(matrix[batch], targets[batch], *grad_layers)
                step += 1
                # Adam with L2 on the weights only.  Every formula keeps the
                # operation order of the per-layer update, so each element
                # is computed exactly as before.
                grad_weights += self.l2 * weights
                first_moment *= beta1
                first_moment += (1 - beta1) * gradients
                second_moment *= beta2
                second_moment += (1 - beta2) * gradients ** 2
                m_hat = first_moment / (1 - beta1 ** step)
                v_hat = second_moment / (1 - beta2 ** step)
                parameters -= self.learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
        return self

    def _forward(self, matrix: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        activations = [matrix]
        hidden = matrix
        for layer in range(len(self._weights) - 1):
            hidden = np.maximum(hidden @ self._weights[layer] + self._biases[layer], 0.0)
            activations.append(hidden)
        logits = hidden @ self._weights[-1] + self._biases[-1]
        return activations, softmax(logits)

    def _gradients(self, matrix: np.ndarray, targets: np.ndarray,
                   grad_weights: List[np.ndarray],
                   grad_biases: List[np.ndarray]) -> None:
        """Write the batch's loss gradients into the per-layer gradient views."""
        activations, probabilities = self._forward(matrix)
        n_samples = matrix.shape[0]
        delta = (probabilities - targets) / n_samples
        for layer in range(len(self._weights) - 1, -1, -1):
            np.matmul(activations[layer].T, delta, out=grad_weights[layer])
            delta.sum(axis=0, out=grad_biases[layer])
            if layer > 0:
                delta = delta @ self._weights[layer].T
                delta = delta * (activations[layer] > 0)

    # ------------------------------------------------------------- prediction

    def predict_proba(self, features) -> np.ndarray:
        """Return softmax class probabilities."""
        self._check_fitted("_weights")
        matrix = check_features(features, n_features=self.n_features_)
        _, probabilities = self._forward(matrix)
        return probabilities
