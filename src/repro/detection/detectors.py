"""Forward / backward detectors (paper §V-B, Fig. 7) and the NoGro MLP.

Each detector is a stacked BiLSTM over the subgroups of a group; every
subgroup is an independent sequence (batched with padding), position
scores come from a 1-unit fully connected layer, and one softmax over
each trajectory's candidates yields the group's probability vector
(Eq. 10-11).
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, StackedBiLSTM, Tensor, concat

__all__ = ["GroupDetector", "IndependentDetector"]


class GroupDetector(Module):
    """Stacked-BiLSTM detector over a forward or backward group.

    Output: a probability Tensor of shape ``(N,)`` indexed by *candidate
    enumeration order* (the detector scatters its per-subgroup outputs back
    through the group's index maps).

    Eq. (10) reads as a softmax per subgroup, but the detector's output is
    compared by KLD against a label that sums to 1 (Eq. 11), and
    single-detector ablations (NoFor/NoBac) only produce meaningful
    argmaxes when the distribution is normalized over the whole group: a
    per-subgroup softmax pins every single-element subgroup at
    probability 1.0.  The softmax is therefore flat over all candidates
    of a trajectory (EXPERIMENTS.md records the deviation).
    """

    def __init__(self, input_dim: int = 64, hidden_size: int = 64,
                 num_layers: int = 4,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.backbone = StackedBiLSTM(input_dim, hidden_size, num_layers, rng)
        self.score = Linear(hidden_size, 1, rng)

    def score_indexed(self, cvecs: Tensor, index_maps: list[np.ndarray],
                      segments: np.ndarray | None = None,
                      bucket: bool = False) -> Tensor:
        """Probabilities of the candidates addressed by ``index_maps``.

        ``cvecs`` is the ``(N, D)`` tensor of compressed vectors (with
        gradients attached when training through the compressor) and
        ``index_maps`` are the subgroup index maps of one trajectory's
        group, or of several trajectories' groups offset into one
        ``cvecs``.  Rows are gathered into padded subgroup batches with
        one fancy index each, so gradients flow back into the encoder.
        ``segments`` gives the candidate count of each trajectory so the
        flat softmax normalizes per trajectory, never across them.

        ``bucket`` only chooses the batches: ``False`` pads every subgroup
        to the longest one in one BiLSTM pass; ``True`` bins subgroups by
        the power-of-two ceiling of their length, one pass per bin padded
        to the bin's own maximum.  The freeze-masked BiLSTM makes the
        hidden states of valid positions padding-length invariant, so the
        choice changes wasted arithmetic, not answers.
        """
        if cvecs.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected c-vec dim {self.input_dim}, got {cvecs.shape}")
        lengths = np.array([len(m) for m in index_maps], dtype=np.int64)
        keys = (2 ** np.ceil(np.log2(np.maximum(lengths, 1))).astype(np.int64)
                if bucket else np.zeros_like(lengths))
        pieces: list[Tensor | None] = [None] * len(index_maps)
        for key in np.unique(keys):
            rows = np.nonzero(keys == key)[0]
            width = int(lengths[rows].max())
            index = np.zeros((len(rows), width), dtype=np.int64)
            for r, row in enumerate(rows):
                index[r, :int(lengths[row])] = index_maps[row]
            hidden = self.backbone(cvecs[index], lengths[rows])  # (B, T, H)
            scores = self.score(hidden).reshape(len(rows), width)
            for r, row in enumerate(rows):
                pieces[row] = scores[r, :int(lengths[row])]
        order = np.argsort(np.concatenate(index_maps))
        flat_scores = concat(pieces, axis=0)[order]
        if segments is None:
            return flat_scores.softmax(axis=0)
        bounds = np.concatenate([[0], np.cumsum(segments)])
        return concat([flat_scores[int(a):int(b)].softmax(axis=0)
                       for a, b in zip(bounds[:-1], bounds[1:])], axis=0)


class IndependentDetector(Module):
    """The LEAD-NoGro ablation: per-candidate MLP with sigmoid output.

    Four fully connected layers (64, 32, 32, 1 units) applied to each
    compressed vector independently; the last layer's sigmoid is the
    candidate's probability of being the loaded trajectory (§VI-A).
    """

    def __init__(self, input_dim: int = 64,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.fc1 = Linear(input_dim, 64, rng)
        self.fc2 = Linear(64, 32, rng)
        self.fc3 = Linear(32, 32, rng)
        self.fc4 = Linear(32, 1, rng)

    def forward(self, cvecs: np.ndarray | Tensor) -> Tensor:
        """Probabilities of shape ``(N,)`` in enumeration order."""
        x = cvecs if isinstance(cvecs, Tensor) else Tensor(cvecs)
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected c-vec dim {self.input_dim}, got {x.shape}")
        h = self.fc1(x).relu()
        h = self.fc2(h).relu()
        h = self.fc3(h).relu()
        return self.fc4(h).sigmoid().reshape(-1)
