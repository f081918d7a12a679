"""Fused recurrent kernels: whole-sequence custom autograd ops.

A per-step recurrent driver built from :class:`~repro.nn.tensor.Tensor`
ops is correct but tape-heavy: every LSTM timestep records ~20
closure-graph ``Tensor`` nodes (gate slices, sigmoids, four elementwise
products, the freeze-mask blend), gate slicing backpropagates through
gradient scatters, and ``stack()`` re-copies all ``T`` hidden states at
the end.  On CPU that
bookkeeping — not the GEMMs — dominates training wall-clock.

This module collapses the tape: :func:`lstm_sequence` and
:func:`gru_sequence` run the entire ``(B, T, ·)`` time loop in raw
numpy with preallocated gate/state buffers, caching the activations
(``i, f, g, o, c, tanh(c)`` for the LSTM; ``r, z, n`` and the
recurrent candidate projection for the GRU) that the hand-derived
full-BPTT backward needs.  Each call contributes **one** node to the
autograd tape instead of ``O(T · 20)``.  The per-step inner loops write
through ``out=`` into reused scratch buffers, the four gate sigmoids are
one fused ``(B, 4H)`` pass, and the backward hoists all activation
derivatives (``σ'``, ``tanh'``) out of the time loop into two
whole-tape vectorized products.

:func:`lstm_sequence` takes a *stack*: ``K`` LSTMs with their own
inputs, weights, lengths and directions run in one time loop whose
recurrent product is one ``(K, B, H) @ (K, H, 4H)`` matmul, so the
per-step dispatch that dominates small batches is paid once for all
``K`` (DESIGN §8).  A lone LSTM is the ``K = 1`` call, and a decoder
(paper Eq. 5) is a *vector-input* slice, fed the same ``(B, F)`` vector
at every step: the encoders, the detectors and the decoders share one
LSTM step, one freeze rule and one BPTT.  Each slice's results equal
its lone run bit for bit; the one exception is a slice of a single row
in a wider stack, whose recurrent product becomes a matrix product
instead of BLAS's matrix-vector one and may move in its last bits.

Numerical contract
------------------
The fused forward replays the floating-point operation order of the
per-step tape (same hoisted input GEMM, same
``(x·W + h·W) + b`` association — float addition is commutative, so
accumulating into the recurrent GEMM buffer is exact — same clipped
sigmoid, same freeze-mask blend), so fused outputs are bit-identical to
the tape and the batched==serial equivalence guarantees of the
inference layer survive untouched.  The backward is algebraically the
same BPTT the tape would perform; only the order in which per-step
contributions are *summed* into the weight gradients differs (one big
GEMM instead of ``T`` small ones), which perturbs gradients at the
level of float64 associativity (~1e-15 relative), far inside the
``rtol=1e-9`` budget enforced by ``tests/test_fused.py``.

Freeze-mask semantics for padding are preserved end to end: a padded
step carries both state and gradient through unchanged, so all-padded
rows produce zero states and zero gradients.

These kernels are the only implementation.  The per-step tape they
replaced survives as a test oracle (``tests/oracles.py``), which the
equivalence tests swap in to check both contracts above.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .precision import active_dtype, weight_view
from .tensor import Tensor, is_grad_enabled

try:  # pragma: no cover - numpy-internal fast path
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # pragma: no cover
    def _clip_ufunc(a, lo, hi, out):
        return a.clip(lo, hi, out=out)

__all__ = ["lstm_sequence", "gru_sequence", "affine", "attention_pool",
           "mlp_head", "prefix_attention_pool"]

def _sigmoid_into(pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = 1 / (1 + exp(-clip(pre, ±60)))``, no temporaries.

    Bit-identical to :meth:`Tensor.sigmoid` (the clip ufunc is invoked
    directly to skip two layers of python dispatch — same ufunc, same
    bits — and the remaining steps are the same operations in the same
    order).
    """
    _clip_ufunc(pre, -60.0, 60.0, out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def _needs_grad(*tensors: Tensor) -> bool:
    return is_grad_enabled() and any(t.requires_grad for t in tensors)


def _compute_dtype(record: bool) -> np.dtype:
    """The dtype a kernel invocation computes in.

    Recording (training) invocations are pinned to float64 — the hand-
    derived backwards and the gradient tests depend on it — while
    inference invocations follow the active precision policy.  With the
    default float64 policy this is byte-identical to the pre-precision
    kernels on both branches.
    """
    return np.dtype(np.float64) if record else active_dtype()


# ----------------------------------------------------------------------
# K LSTMs over padded batches, one time loop
# ----------------------------------------------------------------------
def _step_padding(lengths: list[np.ndarray | None],
                  shapes: list[tuple[int, int]], reverse: list[bool],
                  batch: int, steps: int
                  ) -> tuple[np.ndarray | None, np.ndarray | None,
                             np.ndarray | None]:
    """``(valid, pad, full)`` of a stack in *step order*.

    Slice ``k`` processes its original timestep ``t`` at loop step
    ``t`` (forward) or ``T_k - 1 - t`` (reverse), so a row of length
    ``L`` is valid on steps ``[0, L)`` or ``[T_k - L, T_k)``, and the
    envelope's rows past ``B_k`` are never valid.  ``valid`` and its
    complement ``pad`` are ``(T, K, B, 1)`` bools; ``full`` marks the
    steps where every row of every slice is valid, and the masks are
    dropped when every step is full.
    """
    if all(lens is None for lens in lengths) and all(
            shape == (batch, steps) for shape in shapes):
        return None, None, None
    lo = np.zeros((len(shapes), batch), dtype=np.int64)
    hi = np.zeros((len(shapes), batch), dtype=np.int64)
    for k, ((rows, width), lens, rev) in enumerate(
            zip(shapes, lengths, reverse)):
        lens = width if lens is None else np.asarray(lens)
        hi[k, :rows] = width if rev else lens
        lo[k, :rows] = width - lens if rev else 0
    step = np.arange(steps)[:, None, None]
    valid = (step >= lo) & (step < hi)                    # (T, K, B)
    full = valid.all(axis=(1, 2))
    if full.all():
        return None, None, None
    return valid[..., None], ~valid[..., None], full


#: The most rows (``B``) at which slices share one time loop.  Stacking
#: saves the per-step dispatch of ``K - 1`` loops, which dominates a
#: step only while batches are small: on a 2-core x86 container, ``K``
#: stacked LSTMs ran 1.2–1.4x faster than ``K`` lone ones at 6–20 rows
#: and at par from about 30 rows on, while at 390 rows the stacked
#: buffers outgrew the cache and the stack ran 15 % slower.  Wider
#: stacks run one slice at a time.
_STACK_ROWS = 64


def lstm_sequence(xs: Sequence[Tensor],
                  weights: Sequence[tuple[Tensor, Tensor, Tensor]],
                  lengths: Sequence[np.ndarray | None] | None = None,
                  reverse: Sequence[bool] | None = None,
                  steps: Sequence[int | None] | None = None,
                  initial: Sequence[tuple[np.ndarray, np.ndarray] | None]
                  | None = None
                  ) -> list[tuple[Tensor, Tensor, Tensor]]:
    """Run ``K`` LSTMs in one time loop, as one fused autograd op.

    Slice ``k`` is an LSTM with ``weights[k] = (w_ih, w_hh, bias)``
    (``(F, 4H)``, ``(H, 4H)``, ``(4H,)``, gate layout ``[input, forget,
    cell, output]`` as in :class:`~repro.nn.rnn.LSTMCell`) over
    ``xs[k]`` (``(B_k, T_k, F)``) with ``lengths[k]`` and direction
    ``reverse[k]``.  Every slice shares ``F`` and ``H``; a single LSTM
    is the ``K = 1`` call.  The slices are laid into one ``(K, B, T)``
    envelope (``B = max B_k``, ``T = max T_k``) whose extra rows and
    steps are freeze-masked, and each step's recurrent product is one
    ``(K, B, H) @ (K, H, 4H)`` matmul.  Past :data:`_STACK_ROWS` rows
    the slices run one after another instead.

    A slice with ``steps[k]`` set is a *vector-input* slice, the
    decoder of paper Eq. 5: ``xs[k]`` is ``(B_k, F)`` and is fed at
    each of its ``T_k = steps[k]`` steps.  Its input projection is
    computed once, and its backward sums the gate gradients over time
    before the input, ``w_ih`` and bias GEMMs.

    A slice with ``initial[k] = (h0, c0)`` (``(B_k, H)`` each) starts
    from that state instead of zeros, so a run can be continued where
    an earlier call left it (inference only: a recording call raises).

    Returns one ``(outputs, h_last, c_last)`` per slice: ``outputs`` is
    ``(B_k, T_k, H)`` and ``h_last``/``c_last`` are the freeze-masked
    final states (the state at each row's last valid step; first valid
    step when reversed).  When recording, all are differentiable views
    of one node.
    """
    count = len(xs)
    lengths = [None] * count if lengths is None else list(lengths)
    reverse = [False] * count if reverse is None else list(reverse)
    steps = [None] * count if steps is None else list(steps)
    initial = [None] * count if initial is None else list(initial)
    if not count or not len(weights) == len(lengths) == len(reverse) \
            == len(steps) == len(initial) == count:
        raise ValueError("need one weight triple, length vector, "
                         "direction, step count and initial state per "
                         "input")
    if any(x.ndim != (3 if width is None else 2)
           for x, width in zip(xs, steps)):
        raise ValueError("a slice with a step count takes a (B, F) "
                         "input, any other a (B, T, F) one")
    for k, (x, width) in enumerate(zip(xs, steps)):
        if (x.shape[1] if width is None else width) < 1:
            raise ValueError(f"slice {k} has no steps: an LSTM needs at "
                             "least one step")
    if count > 1 and max(x.shape[0] for x in xs) > _STACK_ROWS:
        return [lstm_sequence(*slice_k)[0] for slice_k in zip(
            ([x] for x in xs), ([w] for w in weights),
            ([lens] for lens in lengths), ([rev] for rev in reverse),
            ([width] for width in steps), ([init] for init in initial))]
    params = [w for triple in weights for w in triple]
    record = _needs_grad(*xs, *params)
    if record and any(init is not None for init in initial):
        raise ValueError("initial states are for inference only")
    cdt = _compute_dtype(record)
    xds = [np.asarray(x.data, dtype=cdt) for x in xs]
    wis = [weight_view(w_ih, cdt) for w_ih, _, _ in weights]
    wh = np.stack([weight_view(w_hh, cdt) for _, w_hh, _ in weights])
    b = np.stack([weight_view(bias, cdt) for _, _, bias in weights])
    b = b[:, None]                                        # (K, 1, 4H)
    n = wh.shape[1]
    features = xds[0].shape[-1]
    if any(x.shape[-1] != features for x in xds) or wh.shape[2] != 4 * n \
            or any(wi.shape != (features, 4 * n) for wi in wis):
        raise ValueError("stacked LSTMs must share input and hidden sizes")
    shapes = [(x.shape[0], x.shape[1] if width is None else width)
              for x, width in zip(xds, steps)]
    batch = max(rows for rows, _ in shapes)
    span = max(width for _, width in shapes)
    valid_m, pad_m, full_t = _step_padding(lengths, shapes, reverse,
                                           batch, span)
    # Hoisted input GEMMs, one per slice on its own (B_k·T_k, F) rows
    # in step order — the same GEMM as the tape's (a GEMM computes each
    # output row independently, so reordering the rows to step-major
    # first permutes output rows without changing a single bit).  A
    # vector-input slice projects its (B_k, F) rows once for all steps.
    # Envelope padding stays zero, so masked steps stay finite.
    padded = any(shape != (batch, span) for shape in shapes)
    x_proj = (np.zeros if padded else np.empty)(
        (count, span, batch, 4 * n), dtype=cdt)
    xTs = []
    for k, (x, wi, (rows, width)) in enumerate(zip(xds, wis, shapes)):
        if steps[k] is not None:
            x_proj[k, :width, :rows] = x @ wi
            xTs.append(None)
            continue
        xT = np.ascontiguousarray(
            (x[:, ::-1] if reverse[k] else x).transpose(1, 0, 2))
        xTs.append(xT)
        flat = xT.reshape(width * rows, features)
        if rows == batch:
            np.matmul(flat, wi, out=x_proj[k, :width].reshape(
                width * rows, 4 * n))
        else:
            x_proj[k, :width, :rows] = (flat @ wi).reshape(width, rows,
                                                           4 * n)
    # The node buffer holds every slice's states in *step order*:
    # packed[k, :, s] is h after step s, written there by the step
    # itself (a reversed slice's outputs are a reversed view), and
    # packed[k, :, T] is the final cell state — one buffer, so one tape
    # node feeds every slice's outputs, h_last and c_last.
    packed = np.empty((count, batch, span + 1, n), dtype=cdt)
    gate_buf = np.empty((count, batch, 4 * n), dtype=cdt)
    scratch = np.empty((count, batch, n), dtype=cdt)
    if record:
        c_states = np.empty((span + 1, count, batch, n))  # c before step s
        c_states[0] = 0.0
        acts = np.empty((span, count, batch, 4 * n))   # i, f, g, o
        tanh_c = np.empty((span, count, batch, n))     # tanh of pre-mask c̃
    else:
        c_states = np.zeros((2, count, batch, n), dtype=cdt)  # rolling c
        act_slab = np.empty((count, batch, 4 * n), dtype=cdt)
        tc_slab = np.empty((count, batch, n), dtype=cdt)
    h_prev = np.zeros((count, batch, n), dtype=cdt)
    for k, init in enumerate(initial):
        if init is not None:
            h_prev[k, :shapes[k][0]], c_states[0, k, :shapes[k][0]] = init
    for s in range(span):
        if record:
            c_prev, c_new = c_states[s], c_states[s + 1]
        else:
            c_prev, c_new = c_states[s % 2], c_states[1 - s % 2]
        h = packed[:, :, s]
        sig = acts[s] if record else act_slab
        tc = tanh_c[s] if record else tc_slab
        np.matmul(h_prev, wh, out=gate_buf)       # K recurrent GEMMs
        gate_buf += x_proj[:, s]                  # x·W + h·W (commutative)
        gate_buf += b
        _sigmoid_into(gate_buf, sig)              # one pass over all 4H
        g = np.tanh(gate_buf[..., 2 * n:3 * n], out=sig[..., 2 * n:3 * n])
        i = sig[..., 0 * n:1 * n]
        f = sig[..., 1 * n:2 * n]
        o = sig[..., 3 * n:4 * n]
        np.multiply(f, c_prev, out=c_new)
        np.multiply(i, g, out=scratch)
        c_new += scratch                          # c̃ = f·c + i·g
        np.tanh(c_new, out=tc)
        np.multiply(o, tc, out=h)                 # h̃ = o·tanh(c̃)
        if pad_m is not None and not full_t[s]:
            # Freeze padded rows: h = h̃·m + h_prev·(1-m) with m ∈ {0, 1}.
            np.copyto(h, h_prev, where=pad_m[s])
            np.copyto(c_new, c_prev, where=pad_m[s])
        h_prev = h
    packed[:, :, span] = c_new
    keys = [((k, slice(rows),
              slice(width - 1, None, -1) if reverse[k] else slice(width)),
             (k, slice(rows), width - 1), (k, slice(rows), span))
            for k, (rows, width) in enumerate(shapes)]
    if not record:
        return [tuple(Tensor(packed[key]) for key in slice_keys)
                for slice_keys in keys]

    def backward(grad: np.ndarray) -> None:
        # Activation derivatives for the whole tape in two fused
        # passes (in-place: σ'=a·(1-a) and tanh'=1-a² share one buffer).
        deriv = 1.0 - acts                        # σ' on i, f, o
        deriv *= acts
        gb = acts[..., 2 * n:3 * n]
        gblk = deriv[..., 2 * n:3 * n]
        np.multiply(gb, gb, out=gblk)             # tanh' on the g block
        np.subtract(1.0, gblk, out=gblk)
        dtanh_c = tanh_c * tanh_c
        np.subtract(1.0, dtanh_c, out=dtanh_c)
        wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))  # (K, 4H, H)
        g_steps = np.ascontiguousarray(
            grad[:, :, :span].transpose(2, 0, 1, 3))       # (T, K, B, H)
        dh = np.zeros((count, batch, n))
        dc = np.array(grad[:, :, span], dtype=np.float64)  # c_last grad
        d_xproj = np.empty((span, count, batch, 4 * n))    # step-major
        s1 = np.empty((count, batch, n))
        dh_skip = np.empty((count, batch, n))
        dc_skip = np.empty((count, batch, n))
        for s in range(span - 1, -1, -1):
            dh += g_steps[s]
            partial = pad_m is not None and not full_t[s]
            if partial:
                keep = valid_m[s]
                drop = pad_m[s]
                np.multiply(dh, drop, out=dh_skip)
                dh *= keep
                np.multiply(dc, drop, out=dc_skip)
                dc *= keep
            i = acts[s, ..., 0 * n:1 * n]
            f = acts[s, ..., 1 * n:2 * n]
            g = acts[s, ..., 2 * n:3 * n]
            da = d_xproj[s]
            # dc̃ = dc·m + dh̃·o·(1 - tanh²c̃)
            np.multiply(dh, acts[s, ..., 3 * n:4 * n], out=s1)
            s1 *= dtanh_c[s]
            dc += s1
            np.multiply(dh, tanh_c[s], out=da[..., 3 * n:4 * n])    # do
            np.multiply(dc, g, out=da[..., 0 * n:1 * n])            # di
            np.multiply(dc, c_states[s], out=da[..., 1 * n:2 * n])  # df
            np.multiply(dc, i, out=da[..., 2 * n:3 * n])            # dg
            da *= deriv[s]                                          # preact
            dc *= f
            if partial:
                dc += dc_skip
            np.matmul(da, wh_t, out=dh)
            if partial:
                dh += dh_skip
        # Per slice, on its own (T_k, B_k) extent in original time order:
        # the same GEMMs and sums as a lone LSTM, whatever the envelope.
        for k, (x, xd, xT, wi, (w_ih, w_hh, bias), (rows, width)) in \
                enumerate(zip(xs, xds, xTs, wis, weights, shapes)):
            rev = reverse[k]
            dk = d_xproj[:width, k, :rows]
            da = np.ascontiguousarray(dk[::-1] if rev else dk)
            flat = da.reshape(width * rows, 4 * n)
            if xT is None:
                # The input is fed at every step: sum its gate grads
                # over time before the GEMMs.
                d_in = da.sum(axis=0)                       # (B_k, 4H)
                inputs = xd
            else:
                d_in = flat
                inputs = (np.ascontiguousarray(xT[::-1]) if rev else xT
                          ).reshape(width * rows, features)
            if x.requires_grad:
                dx = d_in @ wi.T
                if xT is not None:
                    dx = np.ascontiguousarray(dx.reshape(
                        width, rows, features).transpose(1, 0, 2))
                x._accumulate(dx, own=True)
            if w_ih.requires_grad:
                w_ih._accumulate(inputs.T @ d_in, own=True)
            if w_hh.requires_grad:
                # dW_hh = Σ_s h_{s-1}ᵀ·da_s as ONE GEMM: step s reads the
                # state after step s - 1 (zeros at s = 0).
                hp = np.empty((width, rows, n))
                hp[0] = 0.0
                hp[1:] = packed[k, :rows, :width - 1].transpose(1, 0, 2)
                if rev:
                    hp = np.ascontiguousarray(hp[::-1])
                w_hh._accumulate(hp.reshape(width * rows, n).T @ flat,
                                 own=True)
            if bias.requires_grad:
                bias._accumulate(d_in.sum(axis=0), own=True)

    node = Tensor._make(packed, (*xs, *params), backward)
    return [tuple(node[key] for key in slice_keys) for slice_keys in keys]


# ----------------------------------------------------------------------
# GRU over a padded batch
# ----------------------------------------------------------------------
def gru_sequence(x: Tensor, w_ih: Tensor, w_hh: Tensor, b_ih: Tensor,
                 b_hh: Tensor, lengths: np.ndarray | None = None,
                 reverse: bool = False) -> tuple[Tensor, Tensor]:
    """Run a full GRU over ``(B, T, F)`` as one fused autograd op.

    Gate layout matches :class:`~repro.nn.rnn.GRUCell`:
    ``[reset, update, new]``.  Returns ``(outputs, h_last)``.
    """
    record = _needs_grad(x, w_ih, w_hh, b_ih, b_hh)
    cdt = _compute_dtype(record)
    xd = np.asarray(x.data, dtype=cdt)
    wi = weight_view(w_ih, cdt)
    wh = weight_view(w_hh, cdt)
    bi = weight_view(b_ih, cdt)
    bh = weight_view(b_hh, cdt)
    batch, steps, features = xd.shape
    n = wh.shape[0]
    valid_m, pad_m, full_t = _step_padding([lengths], [(batch, steps)],
                                           [reverse], batch, steps)
    # Hoisted input GEMM + bias — identical to the tape's projection
    # (time-major row permutation; a GEMM computes rows independently).
    xT = np.ascontiguousarray(xd.transpose(1, 0, 2))   # (T, B, F)
    gi_all = (xT.reshape(steps * batch, features) @ wi + bi).reshape(
        steps, batch, 3 * n)
    ts = list(range(steps - 1, -1, -1) if reverse else range(steps))

    hs = np.empty((steps, batch, n), dtype=cdt)   # hs[t] = h_t, time-major
    gh_buf = np.empty((batch, 3 * n), dtype=cdt)
    rz_pre = np.empty((batch, 2 * n), dtype=cdt)
    scratch = np.empty((batch, n), dtype=cdt)
    if record:
        acts = np.empty((steps, batch, 3 * n))    # r, z, n̂
        gh_new = np.empty((steps, batch, n))      # recurrent candidate in
    else:
        act_slab = np.empty((batch, 3 * n), dtype=cdt)
    zero_h = np.zeros((batch, n), dtype=cdt)
    h_prev = zero_h
    for k, t in enumerate(ts):
        h = hs[t]
        a = acts[k] if record else act_slab
        np.matmul(h_prev, wh, out=gh_buf)
        gh_buf += bh                              # gh = h·W_hh + b_hh
        np.add(gi_all[t, :, :2 * n], gh_buf[:, :2 * n], out=rz_pre)
        _sigmoid_into(rz_pre, a[:, :2 * n])       # r, z in one pass
        r = a[:, 0 * n:1 * n]
        z = a[:, 1 * n:2 * n]
        cand = a[:, 2 * n:3 * n]
        if record:
            gh_new[k] = gh_buf[:, 2 * n:3 * n]
        np.multiply(r, gh_buf[:, 2 * n:3 * n], out=scratch)
        scratch += gi_all[t, :, 2 * n:3 * n]      # gi_n + r·gh_n
        np.tanh(scratch, out=cand)
        np.subtract(1.0, z, out=scratch)
        np.multiply(scratch, cand, out=h)         # (1-z)·n̂
        np.multiply(z, h_prev, out=scratch)
        h += scratch                              # + z·h_prev
        if pad_m is not None and not full_t[k]:
            np.copyto(h, h_prev, where=pad_m[k, 0])  # freeze padded rows
        h_prev = h
    outputs = np.ascontiguousarray(hs.transpose(1, 0, 2))  # (B, T, H)

    def backward(grad: np.ndarray) -> None:
        deriv = 1.0 - acts                        # σ' on r, z
        deriv *= acts
        cb = acts[:, :, 2 * n:3 * n]
        cblk = deriv[:, :, 2 * n:3 * n]
        np.multiply(cb, cb, out=cblk)             # tanh' on the n̂ block
        np.subtract(1.0, cblk, out=cblk)
        wh_t = wh.T.copy()
        gT = np.ascontiguousarray(grad.transpose(1, 0, 2))   # (T, B, H)
        dh = np.zeros((batch, n))
        d_gi = np.empty((steps, batch, 3 * n))               # time-major
        d_gh = np.empty((steps, batch, 3 * n))
        s1 = np.empty((batch, n))
        dh_skip = np.empty((batch, n))
        for k in range(steps - 1, -1, -1):
            t = ts[k]
            dh += gT[t]
            partial = pad_m is not None and not full_t[k]
            if partial:
                np.multiply(dh, pad_m[k, 0], out=dh_skip)
                dh *= valid_m[k, 0]
            r = acts[k, :, 0 * n:1 * n]
            z = acts[k, :, 1 * n:2 * n]
            cand = acts[k, :, 2 * n:3 * n]
            h_prev = hs[ts[k - 1]] if k > 0 else zero_h
            gi = d_gi[t]
            dgh = d_gh[t]
            np.subtract(1.0, z, out=s1)
            s1 *= dh
            np.multiply(s1, deriv[k, :, 2 * n:3 * n],
                        out=gi[:, 2 * n:3 * n])             # da_n
            np.subtract(h_prev, cand, out=s1)
            s1 *= dh
            np.multiply(s1, deriv[k, :, 1 * n:2 * n],
                        out=gi[:, 1 * n:2 * n])             # da_z
            np.multiply(gi[:, 2 * n:3 * n], gh_new[k], out=s1)
            np.multiply(s1, deriv[k, :, 0 * n:1 * n],
                        out=gi[:, 0 * n:1 * n])             # da_r
            dgh[:, :2 * n] = gi[:, :2 * n]
            np.multiply(gi[:, 2 * n:3 * n], r, out=dgh[:, 2 * n:3 * n])
            np.multiply(dh, z, out=s1)
            np.matmul(dgh, wh_t, out=dh)
            dh += s1
            if partial:
                dh += dh_skip
        flat = d_gi.reshape(steps * batch, 3 * n)
        if x.requires_grad:
            dx = (flat @ wi.T).reshape(steps, batch, features)
            x._accumulate(np.ascontiguousarray(dx.transpose(1, 0, 2)),
                          own=True)
        if w_ih.requires_grad:
            w_ih._accumulate(xT.reshape(steps * batch, features).T @ flat,
                             own=True)
        if w_hh.requires_grad:
            # dW_hh = Σ_k h_{k-1}ᵀ·dgh_k as ONE GEMM over the recorded
            # per-step recurrent-projection grads.
            hp = np.empty((steps, batch, n))
            if reverse:
                hp[steps - 1] = 0.0
                if steps > 1:
                    hp[:steps - 1] = hs[1:]
            else:
                hp[0] = 0.0
                if steps > 1:
                    hp[1:] = hs[:steps - 1]
            w_hh._accumulate(
                hp.reshape(steps * batch, n).T
                @ d_gh.reshape(steps * batch, 3 * n), own=True)
        if b_ih.requires_grad:
            b_ih._accumulate(d_gi.sum(axis=(0, 1)), own=True)
        if b_hh.requires_grad:
            b_hh._accumulate(d_gh.sum(axis=(0, 1)), own=True)

    node = Tensor._make(outputs, (x, w_ih, w_hh, b_ih, b_hh), backward)
    h_last = node[:, ts[-1], :]
    return node, h_last


# ----------------------------------------------------------------------
# Affine (Linear layer) and attention aggregation
# ----------------------------------------------------------------------
def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``y = x @ W + b`` as ONE tape node (the Linear layer collapsed).

    The tape version records two nodes (matmul, broadcast add) and the
    weight gradient for ``(B, T, I)`` inputs goes through a *batched*
    transposed matmul followed by an ``_unbroadcast`` reduction over the
    batch axis; here both directions are single flat GEMMs over the
    collapsed leading axes.  Forward values are bit-identical (GEMM rows
    are computed independently, and ``out += b`` produces the same
    elementwise sums as the tape's broadcast add).
    """
    cdt = _compute_dtype(_needs_grad(x, weight, bias))
    xd = np.asarray(x.data, dtype=cdt)
    wd = weight_view(weight, cdt)
    bd = weight_view(bias, cdt)
    out_f = wd.shape[1]
    flat_x = xd.reshape(-1, xd.shape[-1])
    out = flat_x @ wd
    out += bd
    out = out.reshape(xd.shape[:-1] + (out_f,))

    def backward(grad: np.ndarray) -> None:
        g2 = np.ascontiguousarray(grad.reshape(-1, out_f))
        if x.requires_grad:
            x._accumulate((g2 @ wd.T).reshape(xd.shape), own=True)
        if weight.requires_grad:
            weight._accumulate(flat_x.T @ g2, own=True)
        if bias.requires_grad:
            bias._accumulate(g2.sum(axis=0), own=True)

    return Tensor._make(out, (x, weight, bias), backward)


def mlp_head(x: Tensor, w1: Tensor, b1: Tensor,
             w2: Tensor, b2: Tensor) -> Tensor:
    """``tanh((x @ W1 + b1) @ W2 + b2)`` as ONE tape node.

    The two-FC-plus-tanh head of the compression/decompression
    operators (paper Eqs. 4 and 6).  Works on any leading shape; both
    GEMMs run flat over the collapsed leading axes, forward values are
    bit-identical to the tape chain for the same reasons as
    :func:`affine`, and ``np.tanh`` is the tape's own nonlinearity.
    """
    cdt = _compute_dtype(_needs_grad(x, w1, b1, w2, b2))
    xd = np.asarray(x.data, dtype=cdt)
    flat_x = xd.reshape(-1, xd.shape[-1])
    hidden = flat_x @ weight_view(w1, cdt)
    hidden += weight_view(b1, cdt)             # cached for backward
    out = hidden @ weight_view(w2, cdt)
    out += weight_view(b2, cdt)
    np.tanh(out, out=out)
    out_f = w2.data.shape[1]
    out = out.reshape(xd.shape[:-1] + (out_f,))

    def backward(grad: np.ndarray) -> None:
        # d/dpre tanh = 1 - tanh^2, with tanh cached in the output.
        y = out.reshape(-1, out_f)
        dpre = y * y
        np.subtract(1.0, dpre, out=dpre)
        dpre *= grad.reshape(-1, out_f)
        if w2.requires_grad:
            w2._accumulate(hidden.T @ dpre, own=True)
        if b2.requires_grad:
            b2._accumulate(dpre.sum(axis=0), own=True)
        dh = dpre @ w2.data.T
        if w1.requires_grad:
            w1._accumulate(flat_x.T @ dh, own=True)
        if b1.requires_grad:
            b1._accumulate(dh.sum(axis=0), own=True)
        if x.requires_grad:
            x._accumulate((dh @ w1.data.T).reshape(xd.shape), own=True)

    return Tensor._make(out, (x, w1, b1, w2, b2), backward)


def attention_pool(outputs: Tensor, last_hidden: Tensor,
                   w_query: Tensor, b_query: Tensor,
                   w_key: Tensor, b_key: Tensor,
                   lengths: np.ndarray | None = None,
                   neg_inf: float = -1e9) -> Tensor:
    """Self-attention aggregation (paper Eqs. 3-4) as ONE tape node.

    Collapses the ~14-node tape of
    :class:`repro.nn.attention.SelfAttentionAggregator` (two Linears,
    the score reduction, the masked softmax and the weighted sum) into a
    single custom op.  Forward replays the tape's float op order
    exactly — same query/key projections, same ``(k · q) / sqrt(d)``
    scores, same additive ``-1e9`` mask bias, same shifted softmax —
    so fused outputs are bit-identical.  Backward is the hand-derived
    chain with both Linear gradients as flat GEMMs.
    """
    cdt = _compute_dtype(_needs_grad(outputs, last_hidden, w_query,
                                     b_query, w_key, b_key))
    hd = np.asarray(outputs.data, dtype=cdt)   # (B, T, n)
    hld = np.asarray(last_hidden.data, dtype=cdt)  # (B, n)
    batch, steps, n = hd.shape
    scale = 1.0 / np.sqrt(n)

    q = hld @ weight_view(w_query, cdt)    # (B, n)
    q += weight_view(b_query, cdt)
    flat_h = hd.reshape(batch * steps, n)
    k = (flat_h @ weight_view(w_key, cdt)).reshape(batch, steps, n)
    k += weight_view(b_key, cdt)
    scores = (k * q[:, None, :]).sum(axis=2)
    scores *= scale                        # (B, T)
    if lengths is not None:
        from .rnn import sequence_mask
        mask = sequence_mask(np.asarray(lengths), steps)
        if mask.dtype != cdt:
            mask = mask.astype(cdt)
        scores += (1.0 - mask) * neg_inf
    # Softmax over timesteps, replaying Tensor.softmax's op order.
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=1, keepdims=True)
    pooled = (hd * weights[:, :, None]).sum(axis=1)  # (B, n)

    def backward(grad: np.ndarray) -> None:
        # pooled = sum_t weights_t * H_t
        dw = (hd * grad[:, None, :]).sum(axis=2)          # (B, T)
        d_outputs = weights[:, :, None] * grad[:, None, :]
        # softmax backward (the additive mask bias is a constant).
        ds = weights * (dw - (dw * weights).sum(axis=1, keepdims=True))
        ds *= scale
        # scores = sum_h k * q  ->  product rule.
        dk = ds[:, :, None] * q[:, None, :]               # (B, T, n)
        dq = (ds[:, :, None] * k).sum(axis=1)             # (B, n)
        # Through the key projection (flat GEMMs).
        dk_flat = dk.reshape(batch * steps, n)
        d_outputs += (dk_flat @ w_key.data.T).reshape(hd.shape)
        if w_key.requires_grad:
            w_key._accumulate(flat_h.T @ dk_flat, own=True)
        if b_key.requires_grad:
            b_key._accumulate(dk_flat.sum(axis=0), own=True)
        # Through the query projection.
        if last_hidden.requires_grad:
            last_hidden._accumulate(dq @ w_query.data.T, own=True)
        if w_query.requires_grad:
            w_query._accumulate(hld.T @ dq, own=True)
        if b_query.requires_grad:
            b_query._accumulate(dq.sum(axis=0), own=True)
        if outputs.requires_grad:
            outputs._accumulate(d_outputs, own=True)

    return Tensor._make(
        pooled,
        (outputs, last_hidden, w_query, b_query, w_key, b_key),
        backward)


# ----------------------------------------------------------------------
# All-prefix compression: every prefix of every run from one pass
# ----------------------------------------------------------------------
def prefix_attention_pool(outputs: Tensor, w_query: Tensor, b_query: Tensor,
                          w_key: Tensor, b_key: Tensor,
                          run: np.ndarray, length: np.ndarray,
                          neg_inf: float = -1e9,
                          first: np.ndarray | None = None) -> Tensor:
    """:func:`attention_pool` of many prefixes of each run, as ONE node.

    A forward LSTM's first ``L`` states over a run *are* its states over
    the run's length-``L`` prefix, so row ``k`` pools the first
    ``length[k]`` steps of run ``run[k]`` of ``outputs`` (``(R, T, n)``)
    with the state at step ``length[k] - 1`` as the query.  Queries and
    keys are projected once per run and one causal ``(R, T, T)`` score
    matrix serves every prefix: keys after the query step get the same
    ``-1e9`` bias (and the same ``1/sqrt(d)`` scale) as padding in
    :func:`attention_pool`, so they underflow to exactly zero weight.

    ``first`` (inference only) limits the queries to steps
    ``first[r]`` on of each run ``r``, for a caller whose prefixes all
    end at or after those steps (a run continued from an earlier call
    asks only about its new steps); keys still span the whole run.
    """
    record = _needs_grad(outputs, w_query, b_query, w_key, b_key)
    if record and first is not None:
        raise ValueError("query offsets are for inference only")
    cdt = _compute_dtype(record)
    hd = np.asarray(outputs.data, dtype=cdt)   # (R, T, n)
    runs, steps, n = hd.shape
    scale = 1.0 / np.sqrt(n)
    query = length - 1                         # query step of each prefix

    flat_h = hd.reshape(runs * steps, n)
    if first is None:
        q = (flat_h @ weight_view(w_query, cdt)).reshape(runs, steps, n)
        causal = (1.0 - np.tri(steps, dtype=cdt)) * neg_inf
    else:
        # Query window a of run r is step first[r] + a (clipped past
        # the run's end, where no prefix asks).
        query = query - first[run]
        at = np.minimum(first[:, None] + np.arange(int(query.max()) + 1),
                        steps - 1)                      # (R, A)
        q = (hd[np.arange(runs)[:, None], at].reshape(-1, n)
             @ weight_view(w_query, cdt)).reshape(runs, at.shape[1], n)
        causal = (np.arange(steps) > at[..., None]).astype(cdt) * neg_inf
    q += weight_view(b_query, cdt)
    k = (flat_h @ weight_view(w_key, cdt)).reshape(runs, steps, n)
    k += weight_view(b_key, cdt)
    scores = q @ k.transpose(0, 2, 1)          # (R, A, T): query a, key t
    scores *= scale
    scores += causal
    # Softmax over keys, replaying Tensor.softmax's op order.
    shifted = scores - scores.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=2, keepdims=True)
    pooled = (weights @ hd)[run, query]        # (N, n)

    def backward(grad: np.ndarray) -> None:
        d_pooled = np.zeros((runs, steps, n))
        np.add.at(d_pooled, (run, query), grad)
        # pooled = weights @ H
        d_outputs = weights.transpose(0, 2, 1) @ d_pooled
        dw = d_pooled @ hd.transpose(0, 2, 1)             # (R, A, T)
        # softmax backward (the causal bias is a constant).
        ds = weights * (dw - (dw * weights).sum(axis=2, keepdims=True))
        ds *= scale
        # scores = Q Kᵀ  ->  one batched GEMM per factor.
        dq = (ds @ k).reshape(runs * steps, n)
        dk = (ds.transpose(0, 2, 1) @ q).reshape(runs * steps, n)
        # Through both projections (flat GEMMs).
        d_outputs += (dq @ w_query.data.T + dk @ w_key.data.T).reshape(
            hd.shape)
        if w_query.requires_grad:
            w_query._accumulate(flat_h.T @ dq, own=True)
        if b_query.requires_grad:
            b_query._accumulate(dq.sum(axis=0), own=True)
        if w_key.requires_grad:
            w_key._accumulate(flat_h.T @ dk, own=True)
        if b_key.requires_grad:
            b_key._accumulate(dk.sum(axis=0), own=True)
        if outputs.requires_grad:
            outputs._accumulate(d_outputs, own=True)

    return Tensor._make(pooled, (outputs, w_query, b_query, w_key, b_key),
                        backward)
