"""The hierarchical autoencoder (paper §IV-B, Fig. 5).

The compressor has two phases: phase 1 compresses each sp-f-seq and each
mp-f-seq into sp-c-vec / mp-c-vec using two *separate* operators (stay and
move behaviour differ); phase 2 compresses the sequence of sp-c-vecs and
the sequence of mp-c-vecs into SP-c-vec / MP-c-vec using two more
operators (segment-level and point-level hierarchies differ).  The c-vec
is their concatenation.  The decompressor mirrors this with four
decompression operators.

Encoding all candidates of a trajectory compresses each segment once
(phase 1) and each (trajectory, start stay point) run once (phase 2),
reading candidates off runs at their prefix lengths (:func:`prefix_runs`).
The compressor is causal: candidate ``(i, j)`` reads only stays
``i..j`` and moves ``i..j-1``, so a trajectory that gains stay points
can be encoded from the :class:`EncodingState` its last encoding left:
only the new segments, the new steps of each run and the new
candidates are computed.

Two ablations from the paper are supported via :class:`EncoderConfig`:

* ``use_attention=False`` — LEAD-NoSel: last hidden state instead of the
  self-attention aggregation;
* ``hierarchical=False`` — LEAD-NoHie: a single compression operator and a
  single decompression operator over the flat, unsegmented f-seq (hidden
  width doubled so the c-vec dimension stays comparable).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..configbase import ConfigMixin
from ..nn import Module, Tensor, concat, mse_loss, no_grad
from ..nn.padding import pad_sequences
from ..nn.rnn import sequence_mask
from .operators import CompressionOperator, DecompressionOperator, RunState

__all__ = ["EncoderConfig", "EncodingState", "HierarchicalAutoencoder",
           "PrefixRuns", "flat_sequences", "prefix_runs"]


class PrefixRuns(NamedTuple):
    """Phase-2 layout: one run per (trajectory, start stay point) with a
    candidate to encode, fed the steps no earlier call ran."""

    sp_index: np.ndarray    # (R, T) rows of the stacked stay c-vecs
    sp_lengths: np.ndarray  # (R,) new stay steps per run
    mp_index: np.ndarray    # (R, T') rows of the stacked move c-vecs
    mp_lengths: np.ndarray  # (R,) new move steps per run
    run: np.ndarray         # (N,) the run each new candidate reads
    length: np.ndarray      # (N,) its stay prefix length, j - i + 1
    new: np.ndarray         # (all candidates,) which ones are encoded
    traj: np.ndarray        # (R,) each run's trajectory
    sp_done: np.ndarray     # (R,) stay steps run by earlier calls


@dataclass(frozen=True, eq=False)
class EncodingState:
    """What encoding a trajectory's candidates leaves for the next call
    on the same trajectory grown by more stay points.

    It covers the first ``stays`` stay points: the c-vec of each of
    their candidates in forward-group order and, hierarchically, the
    phase-1 c-vec of each of their segments and each phase-2 run
    (from start stay point ``i < stays``) after its last step.  The flat
    LEAD-NoHie encoder keeps the segment matrices instead.  ``key`` is
    the caller's stamp of what the state is valid for (weights, dtype).
    """

    stays: int
    cvecs: np.ndarray
    sp_cvecs: np.ndarray | None = None
    mp_cvecs: np.ndarray | None = None
    sp_runs: RunState | None = None
    mp_runs: RunState | None = None
    stay_segments: tuple[np.ndarray, ...] = ()
    move_segments: tuple[np.ndarray, ...] = ()
    key: object = None


@lru_cache(maxsize=64)
def _all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every candidate of ``n`` stay points in forward-group order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _candidates(pairs_lists: list[list[tuple[int, int]]],
                stay_counts: np.ndarray, move_counts: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trajectory, ``i`` and ``j`` of every candidate in input order,
    checked against its trajectory's stay and move counts."""
    counts = [len(pairs) for pairs in pairs_lists]
    pairs = np.concatenate([np.asarray(p, dtype=np.int64).reshape(-1, 2)
                            for p in pairs_lists], axis=0)
    traj = np.repeat(np.arange(len(pairs_lists)), counts)
    i, j = pairs[:, 0], pairs[:, 1]
    limit = np.minimum(stay_counts, move_counts + 1)[traj]
    if ((i < 1) | (j <= i) | (j > limit)).any():
        raise ValueError("candidate pairs need 1 <= i < j <= n")
    return traj, i, j


def _firsts(counts: np.ndarray) -> np.ndarray:
    """Row of each list's first item once the lists are stacked."""
    return np.cumsum(counts) - counts


def _steps(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``(R, max length)`` rows ``first[r] + s`` for ``s < lengths[r]``
    (padded cells point at row 0)."""
    cols = np.arange(int(lengths.max()))[None, :]
    return np.where(cols < lengths[:, None], first[:, None] + cols, 0)


def prefix_runs(pairs_lists: list[list[tuple[int, int]]],
                stay_counts: list[int], move_counts: list[int],
                covered: np.ndarray | None = None) -> PrefixRuns:
    """Phase-2 runs for many trajectories' candidates.

    Candidate ``(i, j)`` covers stay ordinals ``i..j`` and move ordinals
    ``i..j-1``, so it is the length-``j - i + 1`` (stay) / ``j - i``
    (move) prefix of one run from stay point ``i`` to the largest end
    among the candidates starting there: ``n - 1`` runs for a full set
    of ``n`` stay points.  Index matrices address the c-vecs of all
    trajectories stacked in input order; padded cells point at row 0.

    ``covered[t]`` stay points of trajectory ``t`` were encoded by an
    earlier call over all their candidates: only candidates ending
    past them are new, and a run from ``i < covered[t]`` already ran
    its first ``covered[t] - i + 1`` stay steps (one fewer move steps),
    so it is fed the rest.
    """
    stays = np.asarray(stay_counts, dtype=np.int64)
    moves = np.asarray(move_counts, dtype=np.int64)
    traj, i, j = _candidates(pairs_lists, stays, moves)
    if covered is None:
        covered = np.zeros(len(stays), dtype=np.int64)
    new = j > covered[traj]
    traj, i, j = traj[new], i[new], j[new]
    span = int(i.max()) + 1
    keys, run = np.unique(traj * span + i, return_inverse=True)
    length = j - i + 1
    sp_total = np.zeros(len(keys), dtype=np.int64)
    np.maximum.at(sp_total, run, length)
    run_traj, run_start = np.divmod(keys, span)
    done = covered[run_traj]
    sp_done = np.where(run_start < done, done - run_start + 1, 0)
    mp_done = np.maximum(sp_done - 1, 0)
    sp_lengths = sp_total - sp_done
    mp_lengths = sp_total - 1 - mp_done
    sp_index = _steps(_firsts(stays)[run_traj] + run_start - 1 + sp_done,
                      sp_lengths)
    mp_index = _steps(_firsts(moves)[run_traj] + run_start - 1 + mp_done,
                      mp_lengths)
    return PrefixRuns(sp_index, sp_lengths, mp_index, mp_lengths, run,
                      length, new, run_traj, sp_done)


def _spans(first: np.ndarray, counts: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``first[b] .. first[b] + counts[b] - 1`` of every ``b``,
    concatenated, and the ``(B, max count)`` matrix of their places in
    that concatenation (padded cells point at 0)."""
    cols = np.arange(int(counts.max()))[None, :]
    inside = cols < counts[:, None]
    return ((first[:, None] + cols)[inside],
            np.where(inside, _firsts(counts)[:, None] + cols, 0))


def flat_sequences(stay_lists: list[list[np.ndarray]],
                   move_lists: list[list[np.ndarray]],
                   pairs_lists: list[list[tuple[int, int]]]
                   ) -> list[np.ndarray]:
    """The unsegmented f-seq of every candidate, in input order (LEAD-NoHie):
    stays ``i..j`` interleaved with moves ``i..j-1``, stacked row-wise."""
    flats: list[np.ndarray] = []
    for stays, moves, pairs in zip(stay_lists, move_lists, pairs_lists):
        for i, j in pairs:
            parts = [stays[i - 1]]
            for ordinal in range(i, j):
                parts += (moves[ordinal - 1], stays[ordinal])
            flats.append(np.concatenate(parts, axis=0))
    return flats


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
    # Phase 1 and the reconstruction loss (paper Eq. 8)
    # ------------------------------------------------------------------
    @staticmethod
    def _phase1(operators: list[CompressionOperator],
                segment_lists: list[list[np.ndarray]]) -> list[Tensor]:
        """Compress each list of (L_i, F) segments into (k, H) with its
        operator, every operator's LSTM in one time loop."""
        padded = [pad_sequences(segments) for segments in segment_lists]
        return CompressionOperator.run_together(
            operators, [Tensor(batch) for batch, _ in padded],
            [lengths for _, lengths in padded])

    def reconstruction_loss_batch(self, stay_lists: list[list[np.ndarray]],
                                  move_lists: list[list[np.ndarray]],
                                  pairs_lists: list[list[tuple[int, int]]]
                                  ) -> Tensor:
        """Mean reconstruction MSE over the candidates of ``pairs_lists``.

        Same layout as :meth:`encode_trajectories`.  Mathematically the
        per-candidate losses averaged with each candidate's point count
        as weight: each candidate is compressed and decompressed on its
        own (a segment two candidates share enters phase 1 twice), but
        in shared padded batches, so a training step costs a handful of
        large matmuls instead of hundreds of small ones — essential on
        CPU.
        """
        if not any(pairs_lists):
            raise ValueError("empty batch")
        if not self.config.hierarchical:
            padded, lengths = pad_sequences(
                flat_sequences(stay_lists, move_lists, pairs_lists))
            c_vec = self.comp_flat(Tensor(padded), lengths)
            recon = self.decomp_flat(c_vec, steps=int(lengths.max()),
                                     lengths=lengths)
            mask = sequence_mask(lengths, int(lengths.max()))
            return mse_loss(recon, padded, mask=mask)
        stay_counts = np.array([len(s) for s in stay_lists], dtype=np.int64)
        move_counts = np.array([len(m) for m in move_lists], dtype=np.int64)
        traj, i, j = _candidates(pairs_lists, stay_counts, move_counts)
        # Each candidate's stays and moves, candidate by candidate, and
        # where each candidate's k-th segment sits in that list.
        sp_counts, mp_counts = j - i + 1, j - i
        sp_rows, sp_index = _spans(_firsts(stay_counts)[traj] + i - 1,
                                   sp_counts)
        mp_rows, mp_index = _spans(_firsts(move_counts)[traj] + i - 1,
                                   mp_counts)
        stays = [seg for segs in stay_lists for seg in segs]
        moves = [seg for segs in move_lists for seg in segs]
        sp_all = [stays[row] for row in sp_rows]
        mp_all = [moves[row] for row in mp_rows]
        # Phase 1 over every segment of every candidate at once, one
        # loop per branch: a one-candidate batch of adjacent stay points
        # has one move segment, and padding that lone row to the stays'
        # two would swap BLAS's matrix-vector product for a matrix
        # product with other last bits (DESIGN §8).
        sp_cvecs, = self._phase1([self.comp_sp], [sp_all])   # (K_sp, H)
        mp_cvecs, = self._phase1([self.comp_mp], [mp_all])   # (K_mp, H)
        # Phase 2 per candidate via one fancy-indexed gather.
        sp_seq = sp_cvecs[sp_index]                       # (B, maxK, H)
        mp_seq = mp_cvecs[mp_index]
        v_sp, v_mp = CompressionOperator.run_together(    # (B, H) each
            [self.comp_sp2, self.comp_mp2], [sp_seq, mp_seq],
            [sp_counts, mp_counts])
        loss_sp, n_sp = self._branch_loss_batch(
            v_sp, sp_all, sp_counts, self.decomp_sp2, self.decomp_sp)
        loss_mp, n_mp = self._branch_loss_batch(
            v_mp, mp_all, mp_counts, self.decomp_mp2, self.decomp_mp)
        total = n_sp + n_mp
        return loss_sp * (n_sp / total) + loss_mp * (n_mp / total)

    def _branch_loss_batch(self, branch_vec: Tensor,
                           segments: list[np.ndarray], counts: np.ndarray,
                           decomp_outer: DecompressionOperator,
                           decomp_inner: DecompressionOperator
                           ) -> tuple[Tensor, int]:
        """Decompress one branch; return (masked MSE, #points)."""
        max_k = int(counts.max())
        cvec_seq = decomp_outer(branch_vec, steps=max_k,
                                lengths=counts)            # (B, maxK, H)
        # Flatten back to one row per real segment (same order as
        # ``segments``) at the (b, k) coordinates of each segment.
        flat_cvecs = cvec_seq[np.nonzero(np.arange(max_k)[None, :]
                                         < counts[:, None])]
        target, lengths = pad_sequences(segments)
        recon = decomp_inner(flat_cvecs, steps=int(lengths.max()),
                             lengths=lengths)
        mask = sequence_mask(lengths, int(lengths.max()))
        return mse_loss(recon, target, mask=mask), int(lengths.sum())

    # ------------------------------------------------------------------
    # Encoding every candidate of whole trajectories
    # ------------------------------------------------------------------
    def encode_trajectory_tensor(self, stay_segments: list[np.ndarray],
                                 move_segments: list[np.ndarray],
                                 pairs: list[tuple[int, int]]) -> Tensor:
        """Differentiable encoding of one trajectory's candidates, ``(N, 2H)``.

        ``stay_segments[i]`` / ``move_segments[i]`` are the featurized
        segments of stay point ``i+1`` / move point ``i+1``; candidate
        ``(i', j')`` uses stay ordinals ``i'..j'`` and move ordinals
        ``i'..j'-1``.  Joint fine-tuning backpropagates through it; it
        runs the same computation as :meth:`encode_trajectories`.
        """
        return self._encode([stay_segments], [move_segments], [pairs])

    def encode_trajectories(self, stay_lists: list[list[np.ndarray]],
                            move_lists: list[list[np.ndarray]],
                            pairs_lists: list[list[tuple[int, int]]],
                            states: list[EncodingState | None] | None = None
                            ) -> list[np.ndarray]:
        """Encode the candidates of many trajectories in one pass.

        Returns one ``(N_t, cvec_dim)`` array per input trajectory.  A
        trajectory's c-vecs do not depend on its batch-mates beyond
        float associativity of the shared GEMMs (padding is exact:
        freeze-masked recurrences and ``-1e9`` masked attention zero
        padded contributions bit for bit).

        With ``states`` (one :class:`EncodingState` or ``None`` per
        trajectory), trajectory ``t`` lists all its candidates in
        forward-group order, its segment lists hold only the segments
        ``states[t]`` does not cover (the stays after its ``stays``
        first, the moves after its ``stays - 1`` first), and only what
        those segments add is computed.  ``states`` is then overwritten
        in place with the states after this call.  Without ``states``
        this is the same routine with nothing covered.
        """
        if not (len(stay_lists) == len(move_lists) == len(pairs_lists)):
            raise ValueError("per-trajectory lists must align")
        if states is not None and len(states) != len(pairs_lists):
            raise ValueError("need one state (or None) per trajectory")
        if not stay_lists:
            return []
        with no_grad():
            out = self._encode(stay_lists, move_lists, pairs_lists,
                               states).numpy()
        if states is not None:
            return [state.cvecs for state in states]
        counts = [len(pairs) for pairs in pairs_lists]
        return list(np.split(out, np.cumsum(counts)[:-1]))

    def _encode(self, stay_lists, move_lists, pairs_lists,
                states=None) -> Tensor:
        """c-vecs of every candidate no state covers, stacked in input
        order; ``states`` as in :meth:`encode_trajectories`."""
        if any(not pairs for pairs in pairs_lists):
            raise ValueError("no candidate pairs to encode")
        prior = [None] * len(pairs_lists) if states is None else list(states)
        covered = np.array([0 if p is None else p.stays for p in prior],
                           dtype=np.int64)
        stay_counts = covered + [len(s) for s in stay_lists]
        move_counts = np.maximum(covered - 1, 0) + [len(m)
                                                    for m in move_lists]
        if states is not None and any(
                tuple(pairs) != _all_pairs(int(n))
                for pairs, n in zip(pairs_lists, stay_counts)):
            raise ValueError("a trajectory encoded with a state must list "
                             "all its candidates in forward-group order")
        if states is not None and not any(len(s) for s in stay_lists):
            # Every candidate is covered: nothing to compute or update.
            return Tensor(np.zeros((0, self.config.cvec_dim)))
        if not self.config.hierarchical:
            return self._encode_flat(stay_lists, move_lists, pairs_lists,
                                     covered, states)
        # Each phase runs its stay and move operators in one time loop.
        sp_new, mp_new = self._phase1(
            [self.comp_sp, self.comp_mp],
            [[seg for segs in stay_lists for seg in segs],
             [seg for segs in move_lists for seg in segs]])
        sp_cvecs = _with_covered(sp_new, [p and p.sp_cvecs for p in prior],
                                 [len(s) for s in stay_lists])
        mp_cvecs = _with_covered(mp_new, [p and p.mp_cvecs for p in prior],
                                 [len(m) for m in move_lists])
        runs = prefix_runs(pairs_lists, stay_counts, move_counts, covered)
        resume = None if states is None else [
            _resumed([p and p.sp_runs for p in prior], runs, runs.sp_done),
            _resumed([p and p.mp_runs for p in prior], runs,
                     np.maximum(runs.sp_done - 1, 0))]
        sp_vec, mp_vec = CompressionOperator.prefixes_together(
            [self.comp_sp2, self.comp_mp2],
            [sp_cvecs[runs.sp_index], mp_cvecs[runs.mp_index]],
            [runs.sp_lengths, runs.mp_lengths],
            [(runs.run, runs.length), (runs.run, runs.length - 1)], resume)
        out = concat([sp_vec, mp_vec], axis=1)
        if states is not None:
            sp_rows = _firsts(stay_counts)
            mp_rows = _firsts(move_counts)
            run_rows = np.searchsorted(runs.traj, np.arange(len(states)))
            for t, (cvecs, n) in enumerate(zip(
                    _assemble(out.data, runs.new, pairs_lists, prior),
                    stay_counts)):
                if cvecs is None:
                    continue
                r = slice(run_rows[t], run_rows[t] + n - 1)
                states[t] = EncodingState(
                    int(n), cvecs,
                    sp_cvecs.data[sp_rows[t]:sp_rows[t] + n].copy(),
                    mp_cvecs.data[mp_rows[t]:mp_rows[t] + n - 1].copy(),
                    _runs_of(resume[0], r, n), _runs_of(resume[1], r, n - 1))
        return out

    def _encode_flat(self, stay_lists, move_lists, pairs_lists, covered,
                     states) -> Tensor:
        """LEAD-NoHie: one flat compressor pass over every candidate no
        state covers (the states keep their segment matrices)."""
        prior = [None] * len(pairs_lists) if states is None else list(states)
        stay_lists = [list(p.stay_segments if p else ()) + list(s)
                      for p, s in zip(prior, stay_lists)]
        move_lists = [list(p.move_segments if p else ()) + list(m)
                      for p, m in zip(prior, move_lists)]
        new_pairs = [[(i, j) for i, j in pairs if j > n]
                     for pairs, n in zip(pairs_lists, covered)]
        batch, lengths = pad_sequences(
            flat_sequences(stay_lists, move_lists, new_pairs))
        out = self.comp_flat(Tensor(batch), lengths)
        if states is not None:
            new = np.concatenate([[j > n for _, j in pairs]
                                  for pairs, n in zip(pairs_lists, covered)])
            for t, cvecs in enumerate(_assemble(out.data, new, pairs_lists,
                                                prior)):
                if cvecs is not None:
                    states[t] = EncodingState(
                        len(stay_lists[t]), cvecs,
                        stay_segments=tuple(stay_lists[t]),
                        move_segments=tuple(move_lists[t]))
        return out


def _with_covered(new: Tensor, covered: list[np.ndarray | None],
                  counts: list[int]) -> Tensor:
    """Per trajectory, its covered c-vecs then its ``counts[t]`` rows of
    ``new``, stacked (``new`` itself when nothing is covered)."""
    if all(rows is None for rows in covered):
        return new
    parts, offset = [], 0
    for rows, count in zip(covered, counts):
        if rows is not None:
            parts.append(rows)
        parts.append(new.data[offset:offset + count])
        offset += count
    return Tensor(np.concatenate(parts))


def _resumed(covered: list[RunState | None], runs: PrefixRuns,
             done: np.ndarray) -> RunState | None:
    """The batch's runs before their new steps: each trajectory's stored
    runs (its first runs, from start stay point 1 on), zeros for runs
    that start here; ``None`` when every run starts here.  A trajectory
    with nothing new has no runs in the batch."""
    stored = [(t, state) for t, state in enumerate(covered)
              if state is not None and t in runs.traj]
    if not stored:
        return None
    like = stored[0][1].h
    h = np.zeros((len(done), like.shape[1]), dtype=like.dtype)
    c = np.zeros_like(h)
    outputs = np.zeros((len(done), int(done.max()), like.shape[1]),
                       dtype=like.dtype)
    for t, state in stored:
        first = int(np.searchsorted(runs.traj, t))
        rows = slice(first, first + len(state.h))
        h[rows], c[rows] = state.h, state.c
        outputs[rows, :state.outputs.shape[1]] = state.outputs
    return RunState(h, c, outputs, done)


def _runs_of(runs: RunState, rows: slice, width: int) -> RunState:
    """One trajectory's rows of a batch :class:`RunState`, copied."""
    return RunState(runs.h[rows].copy(), runs.c[rows].copy(),
                    runs.outputs[rows, :width].copy(),
                    runs.steps[rows].copy())


def _assemble(new_rows: np.ndarray, new: np.ndarray,
              pairs_lists: list[list[tuple[int, int]]],
              covered: list[EncodingState | None]
              ) -> list[np.ndarray | None]:
    """Each trajectory's c-vecs in candidate order: the covered ones from
    its state (they keep their relative order), the new ones from
    ``new_rows``; ``None`` for a trajectory with nothing new."""
    out: list[np.ndarray | None] = []
    start = taken = 0
    for pairs, state in zip(pairs_lists, covered):
        fresh = new[start:start + len(pairs)]
        start += len(pairs)
        count = int(fresh.sum())
        if not count:
            out.append(None)
            continue
        cvecs = np.empty((len(pairs), new_rows.shape[1]),
                         dtype=new_rows.dtype)
        cvecs[fresh] = new_rows[taken:taken + count]
        taken += count
        if state is not None:
            cvecs[~fresh] = state.cvecs
        out.append(cvecs)
    return out
