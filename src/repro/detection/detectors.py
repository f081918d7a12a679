"""Forward / backward detectors (paper §V-B, Fig. 7) and the NoGro MLP.

Each detector is a stacked BiLSTM over the subgroups of a group; every
subgroup is an independent sequence (batched with padding), position
scores come from a 1-unit fully connected layer, and one softmax over
each trajectory's candidates yields the group's probability vector
(Eq. 10-11).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..nn import Linear, Module, StackedBiLSTM, Tensor, concat
from .grouping import backward_index_maps, forward_index_maps

__all__ = ["GroupDetector", "IndependentDetector", "score_groups"]


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
                      bucket: bool = False,
                      partner: tuple[GroupDetector, list[np.ndarray]]
                      | None = None) -> Tensor | tuple[Tensor, Tensor]:
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

        ``partner=(detector, maps)`` scores a second detector over its
        own group of the same candidates in the same passes: per bin,
        every BiLSTM layer of both detectors runs in one time loop.  The
        result is then the pair ``(own, partner's)`` of probabilities.
        """
        groups = [(self, index_maps)]
        if partner is not None:
            groups.append(partner)
        for detector, _ in groups:
            if cvecs.shape[-1] != detector.input_dim:
                raise ValueError(f"expected c-vec dim {detector.input_dim}, "
                                 f"got {cvecs.shape}")
        layouts = [_group_layout(maps, bucket) for _, maps in groups]
        scores: list[list[Tensor]] = [[] for _ in groups]
        for key in sorted(set().union(*(bins for bins, _ in layouts))):
            members = [g for g, (bins, _) in enumerate(layouts) if key in bins]
            batches = [layouts[g][0][key] for g in members]
            hidden = StackedBiLSTM.run_together(
                [groups[g][0].backbone for g in members],
                [cvecs[index] for index, _ in batches],
                [lengths for _, lengths in batches])      # (B, T, H) each
            for g, states in zip(members, hidden):
                scores[g].append(groups[g][0].score(states).reshape(-1))
        probs = [_flat_softmax(concat(parts, axis=0)[order], segments)
                 for parts, (_, order) in zip(scores, layouts)]
        return probs[0] if partner is None else (probs[0], probs[1])


def score_groups(forward: GroupDetector | None,
                 backward: GroupDetector | None, cvecs: Tensor,
                 stay_counts: Sequence[int], segments: np.ndarray,
                 bucket: bool = False) -> tuple[Tensor | None, Tensor | None]:
    """Forward- and backward-group probabilities of many trajectories.

    ``cvecs`` stacks the candidates of trajectories with ``stay_counts``
    stay points, ``segments`` candidates each.  Whichever detectors are
    given score in one :meth:`GroupDetector.score_indexed` call; a
    missing detector gives ``None``.
    """
    offsets = np.cumsum(segments) - segments
    groups = [(detector, [m + int(off) for n, off in zip(stay_counts, offsets)
                          for m in builder(n)])
              for detector, builder in ((forward, forward_index_maps),
                                        (backward, backward_index_maps))
              if detector is not None]
    if not groups:
        return None, None
    (detector, maps), *rest = groups
    probs = detector.score_indexed(cvecs, maps, segments=segments,
                                   bucket=bucket,
                                   partner=rest[0] if rest else None)
    if rest:
        return probs
    return (probs, None) if forward is not None else (None, probs)


def _group_layout(index_maps: list[np.ndarray], bucket: bool
                  ) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]],
                             np.ndarray]:
    """The padded subgroup batches of a group and the reorder back.

    Returns ``{bin: (index, lengths)}`` — per bin the ``(rows, width)``
    matrix of c-vec rows (padding points at row 0) and the subgroup
    lengths — and ``order``: candidate ``i`` (in sorted index order) is
    element ``order[i]`` of the bins' flattened score matrices,
    concatenated in ascending bin order.
    """
    lengths = np.array([len(m) for m in index_maps], dtype=np.int64)
    flat = np.concatenate(index_maps)
    sub = np.repeat(np.arange(len(index_maps)), lengths)
    col = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths,
                                           lengths)
    width = int(lengths.max())
    index = np.zeros((len(index_maps), width), dtype=np.int64)
    index[sub, col] = flat
    if not bucket:
        return {0: (index, lengths)}, (sub * width + col)[np.argsort(flat)]
    keys = 2 ** np.ceil(np.log2(np.maximum(lengths, 1))).astype(np.int64)
    cell = np.zeros_like(index)     # flat score position of each cell
    bins: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    offset = 0
    for key in np.unique(keys):
        rows = np.nonzero(keys == key)[0]
        width = int(lengths[rows].max())
        bins[int(key)] = (index[rows, :width], lengths[rows])
        cell[rows, :width] = offset + np.arange(
            len(rows) * width).reshape(len(rows), width)
        offset += len(rows) * width
    return bins, cell[sub, col][np.argsort(flat)]


def _flat_softmax(scores: Tensor, segments: np.ndarray | None) -> Tensor:
    """Softmax over all candidates, or per trajectory with ``segments``."""
    if segments is None:
        return scores.softmax(axis=0)
    bounds = np.concatenate([[0], np.cumsum(segments)])
    return concat([scores[int(a):int(b)].softmax(axis=0)
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
