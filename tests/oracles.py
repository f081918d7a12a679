"""Reference implementations that exist only to check production code.

Five oracles live here, each the code the production path replaced,
plus :func:`masked_softmax`, which the tape oracle's attention uses:

* :func:`group_distribution` (with :func:`padded_group_scores`) —
  single-trajectory inference through the padded subgroup layout:
  encode one trajectory's candidates, gather each forward/backward
  subgroup's c-vec matrix, pad them into one batch, run each
  detector's backbone and score layer, reorder to enumeration order,
  take one flat softmax and merge (Eq. 10-13).  The
  inference core (``LEAD._predict_many``, which scores through
  ``GroupDetector.score_indexed``) must match it bit for bit on a batch
  of one and at ``rtol=1e-9`` on multi-trajectory batches.
* :func:`per_candidate_cvecs` (with :func:`compress`,
  :func:`reconstruction_loss`) — the per-candidate encoder: every
  candidate's phase-2 sequences are compressed on their own.  The
  prefix-shared phase 2 of ``HierarchicalAutoencoder.encode_trajectories``
  must match it at ``rtol=1e-9``.
* :func:`tape_path` — the per-step autograd tape of the recurrent
  drivers, the linear and attention layers, the operator heads, the
  all-prefix compression and the MSE loss.  Inside the context those
  modules build one tape node per elementary op, and the runners that
  stack several LSTMs into one time loop (``LSTM.run_together``,
  ``CompressionOperator.prefixes_together``) run each slice through
  the tape on its own; the fused kernels of :mod:`repro.nn.fused` must
  match its forward values bit for bit and its gradients at
  ``rtol=1e-9``.
* :class:`ScalarStayPointScanner`, :func:`scalar_kept_indices` /
  :func:`filter_scalar` and :func:`count_categories_bruteforce` — the
  per-fix front-end: the stay-point rule loop one fix at a time, the
  last-kept noise-filter walk one point at a time, and POI counting
  against every POI with no grid.  The array lanes
  (``StayPointScanner.feed_batch``, ``NoiseFilter.filter`` /
  ``kept_indices``, ``POIDatabase.count_categories_batch``) must match
  them exactly.
* :func:`whole_trajectory_segment_features` — featurization by whole
  trajectory: the raw features of every point, z-scored and rescaled,
  then sliced at the segment's ``subsample_indices``.
  ``CandidateFeaturizer.featurize_segments``, which computes only the
  rows it reads, must match it bit for bit.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.detection import (backward_index_maps, forward_index_maps,
                             merge_distributions)
from repro.encoding import operators
from repro.data.poi import POI_CATEGORIES
from repro.features import subsample_indices
from repro.features.sequences import FEATURE_SCALE
from repro.geo import haversine_m, speed_kmh
from repro.model import Trajectory
from repro.nn import (GRU, LSTM, Linear, LSTMDecoder,
                      SelfAttentionAggregator, Tensor, concat, losses,
                      mse_loss, no_grad)
from repro.nn.attention import _NEG_INF
from repro.nn.padding import pad_sequences
from repro.nn.rnn import sequence_mask
from repro.nn.tensor import stack

__all__ = ["group_distribution", "padded_group_scores", "masked_softmax",
           "compress", "reconstruction_loss",
           "per_candidate_cvecs", "tape_path", "ScalarStayPointScanner",
           "scalar_kept_indices", "filter_scalar",
           "count_categories_bruteforce",
           "whole_trajectory_segment_features"]


# ----------------------------------------------------------------------
# Padded-subgroup single-trajectory inference
# ----------------------------------------------------------------------
def group_distribution(lead, processed, direction: str = "both", *,
                       per_candidate: bool = False) -> np.ndarray:
    """Merged Eq. 13 distribution of one processed trajectory.

    ``per_candidate=True`` encodes through :func:`per_candidate_cvecs`
    instead of the production encoder.
    """
    stay, move = lead._segments(processed)
    pairs = [c.pair for c in processed.candidates]
    n = processed.num_stay_points
    with no_grad():
        if per_candidate:
            cvecs = per_candidate_cvecs(lead.autoencoder, stay, move, pairs)
        else:
            cvecs = lead.autoencoder.encode_trajectory_tensor(
                stay, move, pairs).numpy()
        if lead.independent_detector is not None:
            return merge_distributions(
                lead.independent_detector(Tensor(cvecs)).numpy())
        forward = backward = None
        if lead.forward_detector is not None and direction in (
                "both", "forward"):
            forward = padded_group_scores(lead.forward_detector, cvecs,
                                           forward_index_maps(n))
        if lead.backward_detector is not None and direction in (
                "both", "backward"):
            backward = padded_group_scores(lead.backward_detector, cvecs,
                                            backward_index_maps(n))
    if forward is None:
        return merge_distributions(backward)
    return merge_distributions(forward, backward)


def padded_group_scores(detector, cvecs: np.ndarray,
                         index_maps: list[np.ndarray]) -> np.ndarray:
    """One detector over one trajectory's group: the subgroup matrices
    padded into one batch, a flat softmax over enumeration order."""
    batch, lengths = pad_sequences([cvecs[m] for m in index_maps])
    hidden = detector.backbone(Tensor(batch), lengths)    # (B, T, H)
    scores = detector.score(hidden).reshape(*batch.shape[:2])
    pieces = [scores[b, :int(lengths[b])] for b in range(len(lengths))]
    order = np.argsort(np.concatenate(index_maps))
    return concat(pieces, axis=0)[order].softmax(axis=0).numpy()


# ----------------------------------------------------------------------
# Per-candidate encoder
# ----------------------------------------------------------------------
def _flat(stays, moves, pair: tuple[int, int]) -> np.ndarray:
    """Candidate ``pair``'s unsegmented f-seq, one stay or move at a
    time: stays ``i..j`` with moves ``i..j-1`` between them."""
    i, j = pair
    parts = []
    for ordinal in range(i, j):
        parts.append(stays[ordinal - 1])
        parts.append(moves[ordinal - 1])
    parts.append(stays[j - 1])
    return np.concatenate(parts, axis=0)


def compress(model, stays, moves, pair: tuple[int, int]) -> Tensor:
    """The c-vec of candidate ``pair`` of one day's stay and move
    segments, ``(1, cvec_dim)``."""
    if not model.config.hierarchical:
        return model.comp_flat(Tensor(_flat(stays, moves, pair)[None, :, :]))
    i, j = pair
    sp_cvecs, = model._phase1([model.comp_sp], [stays[i - 1:j]])
    mp_cvecs, = model._phase1([model.comp_mp], [moves[i - 1:j - 1]])
    sp_vec = model.comp_sp2(sp_cvecs.reshape(1, *sp_cvecs.shape))
    mp_vec = model.comp_mp2(mp_cvecs.reshape(1, *mp_cvecs.shape))
    return concat([sp_vec, mp_vec], axis=1)


def reconstruction_loss(model, stays, moves, pair: tuple[int, int]
                        ) -> Tensor:
    """MSE between candidate ``pair``'s f-seq and its decompression
    (Eq. 8)."""
    if not model.config.hierarchical:
        flat = _flat(stays, moves, pair)
        c_vec = model.comp_flat(Tensor(flat[None, :, :]))
        recon = model.decomp_flat(c_vec, steps=len(flat))
        return mse_loss(recon, flat[None, :, :])
    c_vec = compress(model, stays, moves, pair)
    h = model.config.hidden_size
    i, j = pair
    loss_sp, n_sp = _branch_loss(model, c_vec[:, :h], stays[i - 1:j],
                                 model.decomp_sp2, model.decomp_sp)
    loss_mp, n_mp = _branch_loss(model, c_vec[:, h:], moves[i - 1:j - 1],
                                 model.decomp_mp2, model.decomp_mp)
    total = n_sp + n_mp
    return loss_sp * (n_sp / total) + loss_mp * (n_mp / total)


def _branch_loss(model, branch_vec: Tensor, segments: list[np.ndarray],
                 decomp_outer, decomp_inner) -> tuple[Tensor, int]:
    """Decompress one branch and return (masked MSE, #points)."""
    k = len(segments)
    cvec_seq = decomp_outer(branch_vec, steps=k)          # (1, k, H)
    cvec_seq = cvec_seq.reshape(k, model.config.hidden_size)
    target, lengths = pad_sequences(segments)
    recon = decomp_inner(cvec_seq, steps=int(lengths.max()),
                         lengths=lengths)                 # (k, T, F)
    mask = sequence_mask(lengths, int(lengths.max()))
    return mse_loss(recon, target, mask=mask), int(lengths.sum())


def per_candidate_cvecs(model, stay_segments, move_segments,
                        pairs) -> np.ndarray:
    """c-vecs of one trajectory's candidates, each compressed on its
    own, ``(N, cvec_dim)`` in the active precision."""
    with no_grad():
        return np.concatenate([
            compress(model, stay_segments, move_segments, pair).numpy()
            for pair in pairs], axis=0)


# ----------------------------------------------------------------------
# Per-fix front-end
# ----------------------------------------------------------------------
class ScalarStayPointScanner:
    """The stay-point rule loop (paper §III), one fix at a time.

    Same pointers (``_anchor``, ``_last``, ``_scan``, ``_emitted``) and
    the same :meth:`state` layout as ``StayPointScanner``; each run break
    is found by one :func:`~repro.geo.haversine_m` call per fix.
    """

    def __init__(self, max_distance_m: float = 500.0,
                 min_duration_s: float = 15.0 * 60.0) -> None:
        self.max_distance_m = max_distance_m
        self.min_duration_s = min_duration_s
        self.lats: list[float] = []
        self.lngs: list[float] = []
        self.ts: list[float] = []
        self._anchor = 0
        self._last = 0
        self._scan = 1
        self._emitted = 0
        self._finished = False

    def _close_run(self) -> tuple[int, int] | None:
        anchor, last = self._anchor, self._last
        span = None
        if (last > anchor
                and self.ts[last] - self.ts[anchor] >= self.min_duration_s):
            span = (anchor, last)
            self._emitted += 1
            self._anchor = last + 1
        else:
            self._anchor = anchor + 1
        self._last = self._anchor
        self._scan = self._anchor + 1
        return span

    def _advance(self, final: bool) -> list[tuple[int, int]]:
        spans: list[tuple[int, int]] = []
        n = len(self.ts)
        while True:
            broke = False
            while self._scan < n:
                k = self._scan
                if haversine_m(self.lats[self._anchor],
                               self.lngs[self._anchor], self.lats[k],
                               self.lngs[k]) > self.max_distance_m:
                    broke = True
                    break
                self._last = k
                self._scan = k + 1
            if not broke:
                if not final or self._anchor >= n - 1:
                    return spans
            span = self._close_run()
            if span is not None:
                spans.append(span)

    def feed(self, lat: float, lng: float, t: float
             ) -> list[tuple[int, int]]:
        """Ingest one fix; return the spans that became decidable."""
        if self._finished:
            raise ValueError("scanner already finished")
        if self.ts and t <= self.ts[-1]:
            raise ValueError("scanner requires strictly increasing "
                             "timestamps")
        self.lats.append(float(lat))
        self.lngs.append(float(lng))
        self.ts.append(float(t))
        return self._advance(final=False)

    def finish(self) -> list[tuple[int, int]]:
        """End of stream: decide everything still open (idempotent)."""
        if self._finished:
            return []
        self._finished = True
        return self._advance(final=True)

    def state(self) -> dict:
        return {
            "max_distance_m": self.max_distance_m,
            "min_duration_s": self.min_duration_s,
            "lats": list(self.lats), "lngs": list(self.lngs),
            "ts": list(self.ts),
            "anchor": self._anchor, "last": self._last, "scan": self._scan,
            "emitted": self._emitted, "finished": self._finished,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ScalarStayPointScanner":
        scanner = cls(state["max_distance_m"], state["min_duration_s"])
        scanner.lats = [float(v) for v in state["lats"]]
        scanner.lngs = [float(v) for v in state["lngs"]]
        scanner.ts = [float(v) for v in state["ts"]]
        scanner._anchor = int(state["anchor"])
        scanner._last = int(state["last"])
        scanner._scan = int(state["scan"])
        scanner._emitted = int(state["emitted"])
        scanner._finished = bool(state["finished"])
        return scanner


def scalar_kept_indices(max_speed_kmh: float, lats, lngs, ts,
                        prev: tuple[float, float, float] | None = None
                        ) -> list[int]:
    """The last-kept noise-filter rule, one point at a time.

    A point is kept iff its speed from the last kept point (``prev``
    before the first one) is at most ``max_speed_kmh``; with no
    ``prev`` the first point is kept unconditionally.
    """
    keep: list[int] = []
    last = prev
    for i in range(len(ts)):
        lat, lng, t = float(lats[i]), float(lngs[i]), float(ts[i])
        if last is None or speed_kmh(haversine_m(last[0], last[1], lat, lng),
                                     t - last[2]) <= max_speed_kmh:
            keep.append(i)
            last = (lat, lng, t)
    return keep


def filter_scalar(noise_filter, trajectory: Trajectory) -> Trajectory:
    """``noise_filter.filter(trajectory)`` through the per-point walk."""
    index = np.asarray(scalar_kept_indices(
        noise_filter.max_speed_kmh, trajectory.lats, trajectory.lngs,
        trajectory.ts), dtype=np.intp)
    return Trajectory(trajectory.lats[index], trajectory.lngs[index],
                      trajectory.ts[index], truck_id=trajectory.truck_id,
                      day=trajectory.day)


def count_categories_bruteforce(db, lats, lngs, radius_m: float,
                                chunk: int = 512) -> np.ndarray:
    """Per-category POI counts, ``(n, 29)``, tested against every POI.

    No grid: each query is compared with every POI by the same squared
    planar distance the production index uses.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    counts = np.zeros((lats.size, len(POI_CATEGORIES)))
    if lats.size == 0 or len(db) == 0:
        return counts
    x, y = db._projection.to_xy(lats, lngs)
    poi_x, poi_y = db._xy[:, 0], db._xy[:, 1]
    codes = np.asarray([poi.category_index for poi in db])
    for start in range(0, lats.size, chunk):
        stop = start + chunk
        dx = poi_x[None, :] - x[start:stop, None]
        dy = poi_y[None, :] - y[start:stop, None]
        hit = dx ** 2 + dy ** 2 <= radius_m ** 2
        for category in range(len(POI_CATEGORIES)):
            counts[start:stop, category] = hit[:, codes == category].sum(
                axis=1)
    return counts


# ----------------------------------------------------------------------
# Whole-trajectory featurization
# ----------------------------------------------------------------------
def whole_trajectory_segment_features(featurizer, segment) -> np.ndarray:
    """One segment's float64 feature matrix, from every point of its
    trajectory: normalize the whole raw matrix, then slice the rows."""
    whole = featurizer.normalizer.transform(
        featurizer.extractor.trajectory_features(segment.trajectory)) \
        * FEATURE_SCALE
    return whole[subsample_indices(
        segment.start, segment.end,
        featurizer.extractor.config.max_segment_len)]


# ----------------------------------------------------------------------
# Per-step autograd tape
# ----------------------------------------------------------------------
def _blend(new: Tensor, old: Tensor, mask: np.ndarray | None) -> Tensor:
    """Freeze masking: keep ``old`` where the step is padding."""
    if mask is None:
        return new
    keep = mask.reshape(-1, 1)
    return new * keep + old * (1.0 - keep)


def _lstm_step(cell, h: Tensor, c: Tensor, x_proj: Tensor,
               mask: np.ndarray | None) -> tuple[Tensor, Tensor]:
    n = cell.hidden_size
    gates = x_proj + h @ cell.w_hh + cell.bias
    i = gates[:, 0 * n:1 * n].sigmoid()
    f = gates[:, 1 * n:2 * n].sigmoid()
    g = gates[:, 2 * n:3 * n].tanh()
    o = gates[:, 3 * n:4 * n].sigmoid()
    c_new = f * c + i * g
    h_new = o * c_new.tanh()
    return _blend(h_new, h, mask), _blend(c_new, c, mask)


def _gru_step(cell, h: Tensor, gi: Tensor,
              mask: np.ndarray | None) -> Tensor:
    n = cell.hidden_size
    gh = h @ cell.w_hh + cell.b_hh
    r = (gi[:, 0 * n:1 * n] + gh[:, 0 * n:1 * n]).sigmoid()
    z = (gi[:, 1 * n:2 * n] + gh[:, 1 * n:2 * n]).sigmoid()
    candidate = (gi[:, 2 * n:3 * n] + r * gh[:, 2 * n:3 * n]).tanh()
    return _blend((1.0 - z) * candidate + z * h, h, mask)


def _zeros(batch: int, hidden: int, like: Tensor) -> Tensor:
    return Tensor(np.zeros((batch, hidden), dtype=like.data.dtype))


def _time_order(steps: int, reverse: bool) -> range:
    return range(steps - 1, -1, -1) if reverse else range(steps)


def _tape_lstm(self, x: Tensor, lengths=None):
    batch, steps, features = x.shape
    mask = None if lengths is None else sequence_mask(lengths, steps)
    h = _zeros(batch, self.hidden_size, x)
    c = _zeros(batch, self.hidden_size, x)
    # Hoisted input projection: one GEMM for all steps.
    x_proj = (x.reshape(batch * steps, features) @ self.cell.w_ih).reshape(
        batch, steps, 4 * self.hidden_size)
    outputs: list[Tensor] = [None] * steps  # type: ignore[list-item]
    for t in _time_order(steps, self.reverse):
        h, c = _lstm_step(self.cell, h, c, x_proj[:, t, :],
                          None if mask is None else mask[:, t])
        outputs[t] = h
    return stack(outputs, axis=1), (h, c)


def _tape_run_together(lstms, xs, lengths):
    """``LSTM.run_together`` as one tape LSTM per slice."""
    return [(outputs, h, c) for outputs, (h, c) in (
        _tape_lstm(lstm, x, lens) for lstm, x, lens in zip(lstms, xs, lengths))]


def _tape_gru(self, x: Tensor, lengths=None):
    batch, steps, features = x.shape
    mask = None if lengths is None else sequence_mask(lengths, steps)
    h = _zeros(batch, self.hidden_size, x)
    x_proj = (x.reshape(batch * steps, features) @ self.cell.w_ih
              + self.cell.b_ih).reshape(batch, steps, 3 * self.hidden_size)
    outputs: list[Tensor] = [None] * steps  # type: ignore[list-item]
    for t in _time_order(steps, self.reverse):
        h = _gru_step(self.cell, h, x_proj[:, t, :],
                      None if mask is None else mask[:, t])
        outputs[t] = h
    return stack(outputs, axis=1), h


def _tape_decoder(self, v: Tensor, steps: int, lengths=None) -> Tensor:
    batch = v.shape[0]
    mask = None if lengths is None else sequence_mask(lengths, steps)
    h = _zeros(batch, self.hidden_size, v)
    c = _zeros(batch, self.hidden_size, v)
    # The input is the same vector at every step: project it once.
    v_proj = v @ self.cell.w_ih
    outputs: list[Tensor] = []
    for t in range(steps):
        h, c = _lstm_step(self.cell, h, c, v_proj,
                          None if mask is None else mask[:, t])
        outputs.append(h)
    return stack(outputs, axis=1)


def masked_softmax(scores: Tensor, mask: np.ndarray | None, axis: int = -1
                   ) -> Tensor:
    """Softmax that assigns zero probability to masked-out positions.

    ``mask`` contains 1.0 at valid positions; invalid positions receive
    the same large negative additive bias the fused attention kernel
    uses, before the softmax.
    """
    if mask is not None:
        bias = (1.0 - mask) * _NEG_INF
        if isinstance(bias, np.ndarray) and bias.dtype != scores.data.dtype:
            bias = bias.astype(scores.data.dtype)
        scores = scores + bias
    return scores.softmax(axis=axis)


def _tape_linear(self, x: Tensor) -> Tensor:
    if x.shape[-1] != self.in_features:
        raise ValueError(
            f"expected last axis {self.in_features}, got {x.shape}")
    return x @ self.weight + self.bias


def _tape_attention(self, outputs: Tensor, last_hidden: Tensor,
                    lengths=None) -> Tensor:
    batch, steps, hidden = outputs.shape
    q = self.query(last_hidden)                      # (B, H)
    k = self.key(outputs)                            # (B, T, H)
    scale = 1.0 / np.sqrt(hidden)
    scores = (k * q.reshape(batch, 1, hidden)).sum(axis=2) * scale
    mask = None if lengths is None else sequence_mask(lengths, steps)
    weights = masked_softmax(scores, mask, axis=1)   # (B, T)
    return (outputs * weights.reshape(batch, steps, 1)).sum(axis=1)


def _tape_head(fc1: Linear, fc2: Linear, x: Tensor) -> Tensor:
    return fc2(fc1(x)).tanh()


def _tape_prefixes(self, runs: Tensor, lengths, run, length) -> Tensor:
    """``CompressionOperator.prefixes`` in the fused op's order."""
    outputs, _ = self.lstm(runs, lengths)
    if not self.use_attention:
        return _tape_head(self.fc1, self.fc2, outputs[run, length - 1])
    steps, hidden = outputs.shape[1:]
    q = self.attention.query(outputs)                # (R, T, H)
    k = self.attention.key(outputs)
    scores = (q @ k.T) * (1.0 / np.sqrt(hidden))     # (R, A, T)
    weights = masked_softmax(scores, np.tri(steps), axis=2)
    pooled = (weights @ outputs)[run, length - 1]
    return _tape_head(self.fc1, self.fc2, pooled)


def _tape_prefixes_together(operators, runs, lengths, prefixes,
                            resume=None):
    """``CompressionOperator.prefixes_together`` one operator at a time
    (fresh runs only: continuing stored runs is inference-only)."""
    if resume is not None:
        raise NotImplementedError("the tape oracle runs fresh runs only")
    return [op.prefixes(x, lens, run, length) for op, x, lens, (run, length)
            in zip(operators, runs, lengths, prefixes)]


def _tape_mse(prediction: Tensor, target: np.ndarray,
              mask: np.ndarray | None) -> Tensor:
    diff = prediction - target
    squared = diff * diff
    if mask is None:
        return squared.mean()
    valid = float(np.broadcast_to(mask, squared.shape).sum())
    if valid == 0:
        raise ValueError("mask selects no elements")
    return (squared * mask).sum() * (1.0 / valid)


_TAPE_PATCHES = (
    (LSTM, "forward", _tape_lstm),
    (LSTM, "run_together", staticmethod(_tape_run_together)),
    (GRU, "forward", _tape_gru),
    (LSTMDecoder, "forward", _tape_decoder),
    (Linear, "forward", _tape_linear),
    (SelfAttentionAggregator, "forward", _tape_attention),
    (operators, "_head", _tape_head),
    (operators.CompressionOperator, "prefixes", _tape_prefixes),
    (operators.CompressionOperator, "prefixes_together",
     staticmethod(_tape_prefixes_together)),
    (losses, "_fused_mse", _tape_mse),
)


@contextlib.contextmanager
def tape_path():
    """Swap the per-step tape in for the fused kernels (not re-entrant,
    process-wide: only for single-threaded tests)."""
    saved = [(owner, name, vars(owner)[name])
             for owner, name, _ in _TAPE_PATCHES]
    for owner, name, replacement in _TAPE_PATCHES:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
