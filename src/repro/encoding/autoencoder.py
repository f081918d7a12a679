"""The hierarchical autoencoder (paper §IV-B, Fig. 5).

The compressor has two phases: phase 1 compresses each sp-f-seq and each
mp-f-seq into sp-c-vec / mp-c-vec using two *separate* operators (stay and
move behaviour differ); phase 2 compresses the sequence of sp-c-vecs and
the sequence of mp-c-vecs into SP-c-vec / MP-c-vec using two more
operators (segment-level and point-level hierarchies differ).  The c-vec
is their concatenation.  The decompressor mirrors this with four
decompression operators.

Two ablations from the paper are supported via :class:`EncoderConfig`:

* ``use_attention=False`` — LEAD-NoSel: last hidden state instead of the
  self-attention aggregation;
* ``hierarchical=False`` — LEAD-NoHie: a single compression operator and a
  single decompression operator over the flat, unsegmented f-seq (hidden
  width doubled so the c-vec dimension stays comparable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..configbase import ConfigMixin
from ..features import CandidateFeatures
from ..nn import Module, Tensor, concat, mse_loss, no_grad
from ..nn.padding import pad_sequences
from ..nn.rnn import sequence_mask
from .operators import CompressionOperator, DecompressionOperator

__all__ = ["EncoderConfig", "HierarchicalAutoencoder", "build_pair_indices"]


def build_pair_indices(pairs: list[tuple[int, int]]
                       ) -> tuple[np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray]:
    """Vectorized phase-2 gather indices for candidate pairs.

    Candidate ``(i, j)`` covers stay ordinals ``i..j`` (``j - i + 1``
    c-vecs) and move ordinals ``i..j-1`` (``j - i`` c-vecs, possibly
    zero for adjacent stays).  Returns ``(sp_lengths, mp_lengths,
    sp_index, mp_index)`` where the index matrices gather rows of the
    phase-1 c-vec arrays into right-padded ``(N, maxK)`` layouts; padded
    cells point at row 0, which is masked out by the length vectors.

    The move-side index matrix is always at least one column wide so a
    batch whose candidates are all adjacent-stay pairs (every
    ``mp_length == 0``) still produces a well-formed ``(N, 1)`` gather
    instead of crashing on an empty ``max()``.
    """
    pairs_arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    i = pairs_arr[:, 0]
    j = pairs_arr[:, 1]
    sp_lengths = j - i + 1
    mp_lengths = j - i
    cols = np.arange(int(sp_lengths.max()))[None, :]
    sp_index = np.where(cols < sp_lengths[:, None], i[:, None] - 1 + cols, 0)
    mp_cols = np.arange(max(int(mp_lengths.max()), 1))[None, :]
    mp_index = np.where(mp_cols < mp_lengths[:, None],
                        i[:, None] - 1 + mp_cols, 0)
    return sp_lengths, mp_lengths, sp_index, mp_index


def _shape_buckets(lengths: np.ndarray, bucket: bool) -> list[np.ndarray]:
    """Group candidate rows by the power-of-2 ceiling of their length.

    Bucketing trades one big ragged pad for a few tighter ones: rows in
    a bucket are padded to the bucket's true maximum, so a batch mixing
    2-stay and 40-stay candidates does not pay 40-step recurrences for
    everyone.  Correctness never depends on the grouping — padding is
    freeze-masked — so ``bucket=False`` (a single group) is equivalent.
    """
    if not bucket or lengths.shape[0] <= 1:
        return [np.arange(lengths.shape[0])]
    clipped = np.maximum(lengths, 1)
    keys = 2 ** np.ceil(np.log2(clipped)).astype(np.int64)
    return [np.nonzero(keys == key)[0] for key in np.unique(keys)]


@dataclass(frozen=True)
class EncoderConfig(ConfigMixin):
    """Architecture knobs (paper defaults: 32 hidden units, c-vec dim 64)."""

    feature_dim: int = 32
    hidden_size: int = 32
    use_attention: bool = True
    hierarchical: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.hidden_size < 1:
            raise ValueError("dimensions must be positive")

    @property
    def cvec_dim(self) -> int:
        """Dimension of the compressed vector (64 with paper defaults)."""
        return 2 * self.hidden_size


class HierarchicalAutoencoder(Module):
    """Compressor + decompressor over segmented candidate feature sequences."""

    def __init__(self, config: EncoderConfig | None = None) -> None:
        super().__init__()
        self.config = config or EncoderConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        h = cfg.hidden_size
        f = cfg.feature_dim
        attn = cfg.use_attention
        if cfg.hierarchical:
            # Phase 1: per-segment operators (stay vs move separated).
            self.comp_sp = CompressionOperator(f, h, rng, attn)
            self.comp_mp = CompressionOperator(f, h, rng, attn)
            # Phase 2: segment-sequence operators.
            self.comp_sp2 = CompressionOperator(h, h, rng, attn)
            self.comp_mp2 = CompressionOperator(h, h, rng, attn)
            self.decomp_sp2 = DecompressionOperator(h, h, h, rng)
            self.decomp_mp2 = DecompressionOperator(h, h, h, rng)
            self.decomp_sp = DecompressionOperator(h, h, f, rng)
            self.decomp_mp = DecompressionOperator(h, h, f, rng)
        else:
            # LEAD-NoHie: one flat operator pair, double width.
            self.comp_flat = CompressionOperator(f, 2 * h, rng, attn)
            self.decomp_flat = DecompressionOperator(2 * h, 2 * h, f, rng)

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def compress(self, features: CandidateFeatures) -> Tensor:
        """The c-vec of one candidate, shape ``(1, cvec_dim)``."""
        if not self.config.hierarchical:
            flat = features.flat()
            batch = Tensor(flat[None, :, :])
            return self.comp_flat(batch)
        sp_cvecs = self._phase1(features.stay_segments, self.comp_sp)
        mp_cvecs = self._phase1(features.move_segments, self.comp_mp)
        return self._phase2(sp_cvecs, mp_cvecs)

    def _phase1(self, segments: list[np.ndarray],
                operator: CompressionOperator) -> Tensor:
        """Compress each segment: list of (L_i, F) -> (k, H)."""
        batch, lengths = pad_sequences(segments)
        return operator(Tensor(batch), lengths)

    def _phase2(self, sp_cvecs: Tensor, mp_cvecs: Tensor) -> Tensor:
        """Compress c-vec sequences into the final (1, 2H) c-vec."""
        sp_vec = self.comp_sp2(sp_cvecs.reshape(1, *sp_cvecs.shape))
        mp_vec = self.comp_mp2(mp_cvecs.reshape(1, *mp_cvecs.shape))
        return concat([sp_vec, mp_vec], axis=1)

    # ------------------------------------------------------------------
    # Decompression and reconstruction loss
    # ------------------------------------------------------------------
    def reconstruction_loss(self, features: CandidateFeatures) -> Tensor:
        """MSE between the f-seq and its decompression (paper Eq. 8)."""
        if not self.config.hierarchical:
            return self._flat_loss(features)
        c_vec = self.compress(features)
        h = self.config.hidden_size
        v_sp = c_vec[:, :h]
        v_mp = c_vec[:, h:]
        loss_sp, n_sp = self._branch_loss(v_sp, features.stay_segments,
                                          self.decomp_sp2, self.decomp_sp)
        loss_mp, n_mp = self._branch_loss(v_mp, features.move_segments,
                                          self.decomp_mp2, self.decomp_mp)
        total = n_sp + n_mp
        return loss_sp * (n_sp / total) + loss_mp * (n_mp / total)

    def _branch_loss(self, branch_vec: Tensor, segments: list[np.ndarray],
                     decomp_outer: DecompressionOperator,
                     decomp_inner: DecompressionOperator
                     ) -> tuple[Tensor, int]:
        """Decompress one branch and return (masked MSE, #points)."""
        # Phase 1 of the decompressor: vector -> c-vec sequence.
        k = len(segments)
        cvec_seq = decomp_outer(branch_vec, steps=k)      # (1, k, H)
        cvec_seq = cvec_seq.reshape(k, self.config.hidden_size)
        # Phase 2: each c-vec -> feature subsequence (batched over segments).
        target, lengths = pad_sequences(segments)
        recon = decomp_inner(cvec_seq, steps=int(lengths.max()),
                             lengths=lengths)             # (k, T, F)
        mask = sequence_mask(lengths, int(lengths.max()))
        loss = mse_loss(recon, target, mask=mask)
        return loss, int(lengths.sum())

    def _flat_loss(self, features: CandidateFeatures) -> Tensor:
        flat = features.flat()
        c_vec = self.comp_flat(Tensor(flat[None, :, :]))
        recon = self.decomp_flat(c_vec, steps=len(flat))
        return mse_loss(recon, flat[None, :, :])

    def reconstruction_loss_batch(self, batch: list[CandidateFeatures]
                                  ) -> Tensor:
        """Mean reconstruction MSE over a mini-batch of candidates.

        Mathematically the mean of per-candidate losses, but computed with
        shared padded batches so a training step costs a handful of large
        matmuls instead of hundreds of small ones — essential on CPU.
        """
        if not batch:
            raise ValueError("empty batch")
        if not self.config.hierarchical:
            flats = [f.flat() for f in batch]
            padded, lengths = pad_sequences(flats)
            c_vec = self.comp_flat(Tensor(padded), lengths)
            recon = self.decomp_flat(c_vec, steps=int(lengths.max()),
                                     lengths=lengths)
            mask = sequence_mask(lengths, int(lengths.max()))
            return mse_loss(recon, padded, mask=mask)
        h = self.config.hidden_size
        # Flat lists of all segments, with per-candidate index ranges.
        sp_all: list[np.ndarray] = []
        mp_all: list[np.ndarray] = []
        sp_index = np.zeros((len(batch), max(len(f.stay_segments)
                                             for f in batch)), dtype=np.int64)
        mp_index = np.zeros((len(batch), max(len(f.move_segments)
                                             for f in batch)), dtype=np.int64)
        sp_counts = np.zeros(len(batch), dtype=np.int64)
        mp_counts = np.zeros(len(batch), dtype=np.int64)
        for b, features in enumerate(batch):
            for segment in features.stay_segments:
                sp_index[b, sp_counts[b]] = len(sp_all)
                sp_all.append(segment)
                sp_counts[b] += 1
            for segment in features.move_segments:
                mp_index[b, mp_counts[b]] = len(mp_all)
                mp_all.append(segment)
                mp_counts[b] += 1
        # Phase 1 over every segment of every candidate at once.
        sp_cvecs = self._phase1(sp_all, self.comp_sp)     # (K_sp, H)
        mp_cvecs = self._phase1(mp_all, self.comp_mp)     # (K_mp, H)
        # Phase 2 per candidate via one fancy-indexed gather.
        sp_seq = sp_cvecs[sp_index]                       # (B, maxK, H)
        mp_seq = mp_cvecs[mp_index]
        v_sp = self.comp_sp2(sp_seq, sp_counts)           # (B, H)
        v_mp = self.comp_mp2(mp_seq, mp_counts)
        loss_sp, n_sp = self._branch_loss_batch(
            v_sp, sp_all, sp_index, sp_counts, self.decomp_sp2,
            self.decomp_sp)
        loss_mp, n_mp = self._branch_loss_batch(
            v_mp, mp_all, mp_index, mp_counts, self.decomp_mp2,
            self.decomp_mp)
        total = n_sp + n_mp
        return loss_sp * (n_sp / total) + loss_mp * (n_mp / total)

    def _branch_loss_batch(self, branch_vec: Tensor,
                           segments: list[np.ndarray],
                           index: np.ndarray, counts: np.ndarray,
                           decomp_outer: DecompressionOperator,
                           decomp_inner: DecompressionOperator
                           ) -> tuple[Tensor, int]:
        """Batched version of :meth:`_branch_loss` over many candidates."""
        max_k = int(counts.max())
        cvec_seq = decomp_outer(branch_vec, steps=max_k,
                                lengths=counts)            # (B, maxK, H)
        # Flatten back to one row per real segment (same order as
        # ``segments``), via the (b, k) coordinates of each segment.
        coords_b: list[int] = []
        coords_k: list[int] = []
        for b, count in enumerate(counts):
            for k in range(int(count)):
                coords_b.append(b)
                coords_k.append(k)
        flat_cvecs = cvec_seq[np.asarray(coords_b), np.asarray(coords_k)]
        target, lengths = pad_sequences(segments)
        recon = decomp_inner(flat_cvecs, steps=int(lengths.max()),
                             lengths=lengths)
        mask = sequence_mask(lengths, int(lengths.max()))
        return mse_loss(recon, target, mask=mask), int(lengths.sum())

    # ------------------------------------------------------------------
    # Inference over all candidates of one trajectory
    # ------------------------------------------------------------------
    def encode_trajectory_tensor(self, stay_segments: list[np.ndarray],
                                 move_segments: list[np.ndarray],
                                 pairs: list[tuple[int, int]]) -> Tensor:
        """Differentiable batched encoding of all candidates, ``(N, 2H)``.

        ``stay_segments[i]`` / ``move_segments[i]`` are the featurized
        segments of stay point ``i+1`` / move point ``i+1``; candidate
        ``(i', j')`` uses stay ordinals ``i'..j'`` and move ordinals
        ``i'..j'-1``.  Phase-1 compression runs once per *unique* segment
        rather than once per candidate — the big saving that lets LEAD
        answer with a single forward computation (paper §VI-B) and that
        makes joint fine-tuning affordable on CPU.
        """
        if not pairs:
            raise ValueError("no candidate pairs to encode")
        if not self.config.hierarchical:
            return self._encode_flat(stay_segments, move_segments, pairs)
        sp_cvecs = self._phase1(stay_segments, self.comp_sp)  # (n, H)
        mp_cvecs = self._phase1(move_segments, self.comp_mp)
        sp_lengths, mp_lengths, sp_index, mp_index = build_pair_indices(
            pairs)
        sp_vec = self.comp_sp2(sp_cvecs[sp_index], sp_lengths)
        mp_vec = self.comp_mp2(mp_cvecs[mp_index], mp_lengths)
        return concat([sp_vec, mp_vec], axis=1)

    def _encode_flat(self, stay_segments, move_segments, pairs) -> Tensor:
        flats = []
        for i, j in pairs:
            parts = []
            for ordinal in range(i, j):
                parts.append(stay_segments[ordinal - 1])
                parts.append(move_segments[ordinal - 1])
            parts.append(stay_segments[j - 1])
            flats.append(np.concatenate(parts, axis=0))
        batch, lengths = pad_sequences(flats)
        return self.comp_flat(Tensor(batch), lengths)

    # ------------------------------------------------------------------
    # Inference over all candidates of many trajectories at once
    # ------------------------------------------------------------------
    def encode_trajectories(self, stay_lists: list[list[np.ndarray]],
                            move_lists: list[list[np.ndarray]],
                            pairs_lists: list[list[tuple[int, int]]], *,
                            bucket: bool) -> list[np.ndarray]:
        """Encode the candidates of many trajectories in fused batches.

        Phase 1 runs *once* over every segment of every trajectory (two
        GEMM-dominated passes instead of two per trajectory), and phase 2
        runs over the merged candidate set — once per shape bucket with
        ``bucket=True``, in one pass otherwise.  The per-trajectory
        results equal :meth:`encode_trajectory_tensor` output up to
        floating-point associativity of the underlying GEMMs (padding
        itself is exact: freeze-masked recurrences and ``-1e9`` masked
        attention zero padded contributions bit-for-bit).

        Returns one ``(N_t, cvec_dim)`` array per input trajectory.
        """
        if not (len(stay_lists) == len(move_lists) == len(pairs_lists)):
            raise ValueError("per-trajectory lists must align")
        if not stay_lists:
            return []
        if any(not pairs for pairs in pairs_lists):
            raise ValueError("no candidate pairs to encode")
        with no_grad():
            if not self.config.hierarchical:
                return self._encode_flat_many(
                    stay_lists, move_lists, pairs_lists)
            # Phase 1 once over every segment of every trajectory.
            sp_offsets = np.cumsum([0] + [len(s) for s in stay_lists])
            mp_offsets = np.cumsum([0] + [len(m) for m in move_lists])
            sp_all = [seg for segs in stay_lists for seg in segs]
            mp_all = [seg for segs in move_lists for seg in segs]
            sp_cvecs = self._phase1(sp_all, self.comp_sp).numpy()
            mp_cvecs = self._phase1(mp_all, self.comp_mp).numpy()
            # Flatten candidates, rebasing ordinals to global row offsets.
            counts = [len(pairs) for pairs in pairs_lists]
            pairs_arr = np.concatenate(
                [np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
                 for pairs in pairs_lists], axis=0)
            sp_start = np.repeat(sp_offsets[:-1], counts) \
                + pairs_arr[:, 0] - 1
            mp_start = np.repeat(mp_offsets[:-1], counts) \
                + pairs_arr[:, 0] - 1
            sp_lengths = pairs_arr[:, 1] - pairs_arr[:, 0] + 1
            mp_lengths = pairs_arr[:, 1] - pairs_arr[:, 0]
            h = self.config.hidden_size
            out = np.empty((pairs_arr.shape[0], self.config.cvec_dim),
                           dtype=sp_cvecs.dtype)
            for rows in _shape_buckets(sp_lengths, bucket):
                width = int(sp_lengths[rows].max())
                cols = np.arange(width)[None, :]
                sp_idx = np.where(cols < sp_lengths[rows, None],
                                  sp_start[rows, None] + cols, 0)
                mp_cols = np.arange(max(width - 1, 1))[None, :]
                mp_idx = np.where(mp_cols < mp_lengths[rows, None],
                                  mp_start[rows, None] + mp_cols, 0)
                sp_vec = self.comp_sp2(Tensor(sp_cvecs[sp_idx]),
                                       sp_lengths[rows])
                mp_vec = self.comp_mp2(Tensor(mp_cvecs[mp_idx]),
                                       mp_lengths[rows])
                out[rows, :h] = sp_vec.numpy()
                out[rows, h:] = mp_vec.numpy()
            return list(np.split(out, np.cumsum(counts)[:-1]))

    def _encode_flat_many(self, stay_lists, move_lists,
                          pairs_lists) -> list[np.ndarray]:
        """LEAD-NoHie batched inference: one flat pass over all candidates."""
        flats: list[np.ndarray] = []
        counts: list[int] = []
        for stays, moves, pairs in zip(stay_lists, move_lists, pairs_lists):
            counts.append(len(pairs))
            for i, j in pairs:
                parts = []
                for ordinal in range(i, j):
                    parts.append(stays[ordinal - 1])
                    parts.append(moves[ordinal - 1])
                parts.append(stays[j - 1])
                flats.append(np.concatenate(parts, axis=0))
        batch, lengths = pad_sequences(flats)
        out = self.comp_flat(Tensor(batch), lengths).numpy()
        return list(np.split(out, np.cumsum(counts)[:-1]))

    def encode(self, features: CandidateFeatures) -> np.ndarray:
        """The c-vec of one candidate as a ``(cvec_dim,)`` array."""
        with no_grad():
            return self.compress(features).numpy()[0]
