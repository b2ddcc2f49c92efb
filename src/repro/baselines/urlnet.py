"""URLNet: character-level convolutional network over raw URL strings.

Le et al. (2018) learn a URL representation with character- and word-level
CNNs. This is a compact numpy re-implementation of the character branch:

* learned character embeddings over a fixed alphabet;
* a bank of 1-D convolution filters (width 3) with ReLU;
* global max pooling per filter;
* a logistic output layer;
* trained end-to-end with mini-batch SGD and backpropagation.

Because it never sees page content, it is structurally blind to everything
that distinguishes FWB phishing (same host as benign sites, often gibberish
subdomains) — the paper measures it at 0.68 accuracy on the FWB ground
truth, the weakest of the four candidates, though also the fastest.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.preprocess import ProcessedPage
from ..errors import NotFittedError, TrainingError

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789./:-_?=&%@~"
_CHAR_INDEX = {ch: i + 1 for i, ch in enumerate(_ALPHABET)}  # 0 = pad/unk
VOCAB_SIZE = len(_ALPHABET) + 1


def encode_url(text: str, max_len: int) -> np.ndarray:
    """Map a URL string to a fixed-length index sequence."""
    indices = np.zeros(max_len, dtype=np.int64)
    for position, ch in enumerate(text.lower()[:max_len]):
        indices[position] = _CHAR_INDEX.get(ch, 0)
    return indices


class URLNetDetector:
    """Character-CNN URL classifier trained with SGD."""

    def __init__(
        self,
        max_len: int = 80,
        embed_dim: int = 12,
        n_filters: int = 24,
        filter_width: int = 3,
        epochs: int = 18,
        batch_size: int = 32,
        learning_rate: float = 0.1,
        random_state: Optional[int] = 7,
    ) -> None:
        self.max_len = max_len
        self.embed_dim = embed_dim
        self.n_filters = n_filters
        self.filter_width = filter_width
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.random_state = random_state
        self._fitted = False
        # Parameters, initialized at fit time.
        self.embeddings: Optional[np.ndarray] = None   # (vocab, embed)
        self.filters: Optional[np.ndarray] = None      # (n_filters, width, embed)
        self.filter_bias: Optional[np.ndarray] = None  # (n_filters,)
        self.out_weights: Optional[np.ndarray] = None  # (n_filters,)
        self.out_bias: float = 0.0

    # -- forward/backward ----------------------------------------------------

    def _forward(self, batch_indices: np.ndarray):
        """Forward pass; returns intermediates needed by backprop."""
        embedded = self.embeddings[batch_indices]  # (B, L, E)
        B, L, E = embedded.shape
        W = self.filter_width
        n_windows = L - W + 1
        # (B, n_windows, W*E) sliding windows.
        windows = np.stack(
            [embedded[:, i : i + W, :].reshape(B, -1) for i in range(n_windows)],
            axis=1,
        )
        flat_filters = self.filters.reshape(self.n_filters, -1)  # (F, W*E)
        conv = windows @ flat_filters.T + self.filter_bias  # (B, n_windows, F)
        relu = np.maximum(conv, 0.0)
        pooled = relu.max(axis=1)  # (B, F)
        argmax = relu.argmax(axis=1)  # (B, F) winning window per filter
        logits = pooled @ self.out_weights + self.out_bias  # (B,)
        probabilities = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
        return embedded, windows, conv, pooled, argmax, probabilities

    def _backward(
        self, batch_indices, labels, embedded, windows, conv, pooled, argmax, probs
    ) -> None:
        B = labels.shape[0]
        lr = self.learning_rate
        d_logits = (probs - labels) / B  # (B,)

        grad_out_w = pooled.T @ d_logits
        grad_out_b = d_logits.sum()
        d_pooled = np.outer(d_logits, self.out_weights)  # (B, F)

        flat_filters = self.filters.reshape(self.n_filters, -1)
        grad_filters = np.zeros_like(flat_filters)
        grad_filter_bias = np.zeros_like(self.filter_bias)
        grad_embedded = np.zeros_like(embedded)
        W = self.filter_width

        batch_rows = np.arange(B)
        for f in range(self.n_filters):
            win = argmax[:, f]                        # (B,)
            active = conv[batch_rows, win, f] > 0     # ReLU gate
            coeff = d_pooled[:, f] * active           # (B,)
            selected = windows[batch_rows, win, :]    # (B, W*E)
            grad_filters[f] = coeff @ selected
            grad_filter_bias[f] = coeff.sum()
            # Route gradients back into the winning windows' embeddings.
            contribution = np.outer(coeff, flat_filters[f]).reshape(B, W, -1)
            for b in range(B):
                if coeff[b] != 0.0:
                    grad_embedded[b, win[b] : win[b] + W, :] += contribution[b]

        # Embedding-table scatter-add.
        np.add.at(
            self.embeddings,
            batch_indices.reshape(-1),
            grad_embedded.reshape(-1, self.embed_dim) * -lr,
        )
        self.filters -= lr * grad_filters.reshape(self.filters.shape)
        self.filter_bias -= lr * grad_filter_bias
        self.out_weights -= lr * grad_out_w
        self.out_bias -= lr * grad_out_b

    # -- API --------------------------------------------------------------------

    def fit_urls(self, urls: Sequence[str], labels: Sequence[int]) -> "URLNetDetector":
        labels = np.asarray(labels, dtype=np.float64)
        if len(urls) != labels.shape[0]:
            raise TrainingError("urls/labels length mismatch")
        rng = np.random.default_rng(self.random_state)
        self.embeddings = rng.normal(0, 0.1, size=(VOCAB_SIZE, self.embed_dim))
        self.embeddings[0] = 0.0
        self.filters = rng.normal(
            0, 0.1, size=(self.n_filters, self.filter_width, self.embed_dim)
        )
        self.filter_bias = np.zeros(self.n_filters)
        self.out_weights = rng.normal(0, 0.1, size=self.n_filters)
        self.out_bias = 0.0

        encoded = np.stack([encode_url(u, self.max_len) for u in urls])
        n = encoded.shape[0]
        for _epoch in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                outs = self._forward(encoded[batch])
                self._backward(encoded[batch], labels[batch], *outs)
        self._fitted = True
        return self

    def fit_pages(
        self, pages: Sequence[ProcessedPage], labels: Sequence[int]
    ) -> "URLNetDetector":
        return self.fit_urls([str(p.url) for p in pages], labels)

    def predict_proba_urls(self, urls: Sequence[str]) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("URLNetDetector is not fitted")
        encoded = np.stack([encode_url(u, self.max_len) for u in urls])
        return self._forward(encoded)[-1]

    def predict_page(self, page: ProcessedPage) -> int:
        return int(self.predict_proba_urls([str(page.url)])[0] >= 0.5)

    def predict_pages(self, pages: Sequence[ProcessedPage]) -> np.ndarray:
        return (
            self.predict_proba_urls([str(p.url) for p in pages]) >= 0.5
        ).astype(np.int64)
