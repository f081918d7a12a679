"""The LEAD framework facade (paper Fig. 2): offline fit, online detect.

Offline stage:

1. process historical raw trajectories (noise filtering, stay point
   extraction, candidate generation);
2. fit the z-score normalizer and train the hierarchical autoencoder on
   the shuffled f-seqs of all candidates (self-supervised);
3. encode every trajectory's candidates with the trained compressor and
   train the forward/backward detectors on the smoothed labels.

Online stage: a single forward computation per component detects the
loaded trajectory of an unseen raw trajectory.

Resilience (beyond the paper): the online stage validates and repairs
hostile input, and degrades through a tier chain instead of crashing
when a component is unavailable or numerically unstable::

    both -> forward-only -> backward-only -> heuristic

Each :class:`DetectionResult` carries a :class:`DetectionProvenance`
recording which tier answered and what repairs were applied, so a
caller (or an auditor) can distinguish a full-confidence answer from a
degraded one.  Persistence is atomic and checksummed (``manifest.json``
per model directory), and ``fit`` checkpoints every epoch when given a
``checkpoint_dir`` so a killed run resumes deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ..data.poi import POIDatabase
from ..data.dataset import LabeledSample
from ..detection import (GroupDetector, IndependentDetector,
                         JointDetectorTrainer, TrajectorySpec,
                         index_to_pair, merge_distributions, pair_to_index,
                         score_groups)
from ..encoding import (AutoencoderTrainer, EncodingState,
                        HierarchicalAutoencoder)
from ..errors import (ArtifactCorruptedError, DetectorUnavailableError,
                      InvalidTrajectoryError, NotFittedError,
                      NumericalInstabilityError)
from ..features import (CandidateFeaturizer, FeatureExtractor,
                        ZScoreNormalizer)
from ..io import (atomic_write_json, load_checked_json, verify_manifest,
                  write_manifest)
from ..model import Trajectory
from ..nn import (VALID_DTYPES, CheckpointManager, Tensor, TrainingHistory,
                  active_dtype_name, inference_dtype, load_module, no_grad,
                  save_module)
from ..obs.core import active_obs, obs_event, obs_span, obs_timed
from ..perf.parallel import parallel_map
from ..processing import ProcessedTrajectory, sanitize_trajectory
from .config import LEADConfig

__all__ = ["LEAD", "DetectionResult", "DetectionProvenance", "FitReport"]

#: Neural inference tiers in preference order, with the detector
#: direction each one needs.
_TIER_DIRECTIONS = (("both", "both"), ("forward-only", "forward"),
                    ("backward-only", "backward"))


def _bucketed(batch: Sequence[ProcessedTrajectory]) -> bool:
    """Whether ``GroupDetector.score_indexed`` shape-buckets ``batch``
    (DESIGN §8; the encoder never buckets).

    Power-of-2 length buckets split one trajectory's subgroups into
    about log2(n) passes, which costs more than the padding it saves;
    across a multi-trajectory batch the padding dominates.  Padding is
    freeze-masked, so the choice changes speed, not answers.
    """
    return len(batch) > 1


@dataclass(frozen=True)
class DetectionProvenance:
    """Which tier produced a result and what repairs were applied."""

    tier: str                       # "both" | "independent" |
    #                                 "forward-only" | "backward-only" |
    #                                 "heuristic"
    sanitized: bool = False         # input fixes were dropped/repaired
    notes: tuple[str, ...] = ()     # human-readable repair/failure trail
    #: Dtype the neural tiers computed in ("float64" | "float32").  The
    #: heuristic tier always reports float64.  A float32 request
    #: demoted by the parity gate reports float64 here plus a
    #: degradation-style note in ``notes``.
    compute_dtype: str = "float64"

    @property
    def degraded(self) -> bool:
        """True when a lower tier than the full detector pair answered."""
        return self.tier not in ("both", "independent")


_FULL_CONFIDENCE = DetectionProvenance(tier="both")


@dataclass(frozen=True)
class DetectionResult:
    """The outcome of detecting one raw trajectory."""

    pair: tuple[int, int]               # detected (i', j')
    distribution: np.ndarray            # merged probabilities, enum order
    processed: ProcessedTrajectory
    provenance: DetectionProvenance = _FULL_CONFIDENCE

    @property
    def candidate(self):
        """The detected loaded trajectory as a CandidateTrajectory."""
        return self.processed.candidates[
            self.processed.candidate_index(self.pair)]


@dataclass
class FitReport:
    """Training record of one offline stage (feeds Figs. 9 and 10)."""

    autoencoder_history: TrainingHistory
    detector_histories: list[TrainingHistory] = field(default_factory=list)
    num_trajectories_used: int = 0
    num_autoencoder_samples: int = 0


class LEAD:
    """LoadEd trAjectory Detection framework."""

    def __init__(self, pois: POIDatabase,
                 config: LEADConfig | None = None) -> None:
        self.config = config or LEADConfig()
        cfg = self.config
        self.processor = cfg.build_processor()
        self.extractor = FeatureExtractor(pois, cfg.feature)
        self.featurizer = CandidateFeaturizer(self.extractor,
                                              ZScoreNormalizer())
        #: Content-keyed segment feature cache shared by training epochs
        #: and ``detect`` calls (the featurizer's own).
        self.feature_cache = self.featurizer.cache
        self.autoencoder = HierarchicalAutoencoder(cfg.encoder)
        rng = np.random.default_rng(cfg.seed)
        cvec_dim = cfg.encoder.cvec_dim
        if cfg.use_grouping:
            self.forward_detector = GroupDetector(
                cvec_dim, cfg.detector_hidden, cfg.detector_layers, rng) \
                if cfg.use_forward else None
            self.backward_detector = GroupDetector(
                cvec_dim, cfg.detector_hidden, cfg.detector_layers, rng) \
                if cfg.use_backward else None
            self.independent_detector = None
        else:
            self.forward_detector = None
            self.backward_detector = None
            self.independent_detector = IndependentDetector(cvec_dim, rng)
        self._fitted = False
        #: Names the current weights: a new token whenever they change
        #: (construction, fit, load), so an encoding state stamped with
        #: an old one is never read against other weights.
        self._weight_set = object()
        # Precision tier state: the effective compute dtype stays
        # unresolved (None) under the float32 policy until the parity
        # gate has compared float32 against float64 verdicts on a
        # calibration slice — at load time when calibration data is
        # provided, otherwise lazily on the first detect batch.
        self._effective_dtype: str | None = (
            "float64" if cfg.inference_dtype == "float64" else None)
        self._parity_report: dict[str, object] | None = None
        self._precision_notes: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Offline stage
    # ------------------------------------------------------------------
    def fit(self, training: list[LabeledSample],
            verbose: bool = False,
            checkpoint_dir: str | Path | None = None,
            workers: int | None = None) -> FitReport:
        """Run the full offline stage on labelled raw trajectories.

        With ``checkpoint_dir``, both training loops persist their full
        state after every epoch; re-calling ``fit`` with the same
        directory after a crash retrains only the epochs that were never
        completed and yields bit-for-bit the same model.

        ``workers`` parallelizes trajectory processing across processes;
        the result is identical for any worker count because processing
        is a pure function of each day (see :mod:`repro.perf.parallel`).
        Featurization is one pass over every training day's segments,
        whose matrices both trainers read.  Training itself stays serial
        — it is a sequential optimization loop.
        """
        processed = self._process_training(training, workers)
        if not processed:
            raise InvalidTrajectoryError("no usable training trajectories")
        self.featurizer.fit_normalizer([p.cleaned for p, _ in processed])
        ae_ckpt, det_ckpt = self._checkpoints(checkpoint_dir)
        specs = self._build_detector_specs(processed)
        history, num_samples = self._fit_autoencoder(specs, verbose, ae_ckpt)
        report = FitReport(autoencoder_history=history,
                           num_trajectories_used=len(processed),
                           num_autoencoder_samples=num_samples)
        report.detector_histories = self._fit_detectors(specs, verbose,
                                                        det_ckpt)
        self._fitted = True
        self._weights_changed()
        return report

    def fit_detectors_only(self, training: list[LabeledSample],
                           verbose: bool = False,
                           checkpoint_dir: str | Path | None = None
                           ) -> FitReport:
        """Train only the detection component.

        Requires the normalizer and autoencoder weights to be in place
        already (loaded from another variant's artifacts).  Used to build
        LEAD-NoGro cheaply: it shares LEAD's encoding verbatim, only the
        detector differs.
        """
        if not self.featurizer.normalizer.fitted:
            raise NotFittedError("normalizer must be fitted/loaded first")
        processed = self._process_training(training)
        if not processed:
            raise InvalidTrajectoryError("no usable training trajectories")
        _, det_ckpt = self._checkpoints(checkpoint_dir)
        specs = self._build_detector_specs(processed)
        report = FitReport(
            autoencoder_history=TrainingHistory(name="(reused)"),
            num_trajectories_used=len(processed))
        report.detector_histories = self._fit_detectors(specs, verbose,
                                                        det_ckpt)
        self._fitted = True
        self._weights_changed()
        return report

    @staticmethod
    def _checkpoints(checkpoint_dir: str | Path | None
                     ) -> tuple[CheckpointManager | None,
                                CheckpointManager | None]:
        if checkpoint_dir is None:
            return None, None
        directory = Path(checkpoint_dir)
        return (CheckpointManager(directory, "autoencoder"),
                CheckpointManager(directory, "detectors"))

    def _process_training(self, training: list[LabeledSample],
                          workers: int | None = None
                          ) -> list[tuple[ProcessedTrajectory,
                                          tuple[int, int]]]:
        results = parallel_map(self.processor.process_sample, training,
                               workers=workers)
        out = []
        for processed in results:
            if processed is None or processed.label_pair is None:
                continue  # unusable day, as in the paper's data cleaning
            out.append((processed, processed.label_pair))
        return out

    def _fit_autoencoder(self, specs: list[TrajectorySpec], verbose: bool,
                         checkpoint: CheckpointManager | None = None
                         ) -> tuple[TrainingHistory, int]:
        """Pretrain on every candidate of the training days, shuffled and
        capped; return the history and the number of samples kept."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        samples = [(day, pair) for day, spec in enumerate(specs)
                   for pair in spec.pairs]
        rng.shuffle(samples)
        if cfg.max_autoencoder_samples is not None:
            samples = samples[:cfg.max_autoencoder_samples]
        trainer = AutoencoderTrainer(self.autoencoder, cfg.encoder_training)
        history = trainer.fit([spec.stay_segments for spec in specs],
                              [spec.move_segments for spec in specs],
                              samples, verbose=verbose,
                              checkpoint=checkpoint)
        return history, len(samples)

    def _segment_lists(self, processed_list: Sequence[ProcessedTrajectory],
                       covered: Sequence[int] | None = None
                       ) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
        """Stay and move segment features of each trajectory, from one
        featurization pass over all of them; with ``covered``, only the
        stays after each trajectory's ``covered[k]`` first and the moves
        after its ``covered[k] - 1`` first."""
        if covered is None:
            covered = [0] * len(processed_list)
        groups = [(processed.stay_points[n:],
                   processed.move_points[max(n - 1, 0):])
                  for processed, n in zip(processed_list, covered)]
        matrices = iter(self.featurizer.featurize_segments(
            [segment for group in groups for part in group
             for segment in part]))
        return [([next(matrices) for _ in stays],
                 [next(matrices) for _ in moves]) for stays, moves in groups]

    def _segments(self, processed: ProcessedTrajectory
                  ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return self._segment_lists([processed])[0]

    def _build_detector_specs(self, processed) -> list[TrajectorySpec]:
        segments = self._segment_lists([t for t, _ in processed])
        return [TrajectorySpec(
                    stay_segments=stay, move_segments=move,
                    pairs=[c.pair for c in trajectory.candidates],
                    num_stay_points=trajectory.num_stay_points,
                    target_index=pair_to_index(trajectory.num_stay_points,
                                               pair))
                for (trajectory, pair), (stay, move) in zip(processed,
                                                             segments)]

    def _fit_detectors(self, specs: list[TrajectorySpec], verbose: bool,
                       checkpoint: CheckpointManager | None = None
                       ) -> list[TrainingHistory]:
        cfg = self.config
        trainer = JointDetectorTrainer(
            self.autoencoder, self.forward_detector, self.backward_detector,
            self.independent_detector, cfg.detector_training,
            finetune_encoder=cfg.finetune_encoder)
        return trainer.fit(specs, verbose=verbose, checkpoint=checkpoint)

    # ------------------------------------------------------------------
    # Precision tiers
    # ------------------------------------------------------------------
    #: Calibration-slice size for the parity gate; enough trajectories
    #: to exercise every detector head without doubling a big batch.
    _PARITY_CALIBRATION = 16
    #: Below this many calibration trajectories a passing gate still
    #: commits float32 (re-gating on every detect call would triple its
    #: cost) but flags the thin evidence in the provenance notes.
    _PARITY_MIN_CALIBRATION = 4

    def run_parity_gate(self, processed_list: list[ProcessedTrajectory],
                        margin: float | None = None) -> dict[str, object]:
        """Compare float32 against float64 verdicts on a calibration slice.

        Runs the full batched inference twice — once per dtype — over up
        to ``_PARITY_CALIBRATION`` trajectories and demands exact
        verdict (argmax pair) agreement plus a merged-distribution
        divergence within ``margin`` (default
        ``config.precision_margin``).  The divergence is the raw maximum
        absolute difference of the merged distributions; those arrive
        min-max rescaled to [0, 1] by ``merge_distributions`` (Eq. 13),
        so the margin is relative to the decision scale without any
        further rescaling here.

        For a ``"float32"`` policy the outcome is committed:
        a pass enables the float32 hot path for subsequent detect calls,
        a failure pins inference to float64 and records a
        degradation-style note that every later result carries in its
        provenance.  The gate itself degrades rather than raises: if
        batched inference cannot run at all (e.g. a detector is missing)
        or produces non-finite distributions, the gate fails and pins
        float64, leaving the normal tier walk to serve the request.  Under a ``"float64"``
        policy the gate only reports.
        """
        self._require_fitted()
        if not processed_list:
            raise ValueError("parity gate needs a non-empty calibration "
                             "slice")
        if margin is None:
            margin = self.config.precision_margin
        sample = processed_list[:self._PARITY_CALIBRATION]
        try:
            with inference_dtype("float64"):
                reference = self._predict_many(sample)
            with inference_dtype("float32"):
                candidate = self._predict_many(sample)
        except (DetectorUnavailableError, NumericalInstabilityError) as exc:
            report: dict[str, object] = {
                "policy": self.config.inference_dtype,
                "verdict_agreement": 0.0,
                "max_abs_divergence": float("inf"),
                "margin": float(margin),
                "num_calibration": len(sample),
                "passed": False,
                "error": str(exc),
            }
            self._parity_report = report
            if self.config.inference_dtype != "float64":
                self._effective_dtype = "float64"
                self._precision_notes = (
                    "precision: float32 parity gate could not run "
                    f"({exc}); fell back to float64",)
                obs_event("precision.fallback", reason="gate-error",
                          error=str(exc),
                          policy=self.config.inference_dtype)
            return report
        agreements = 0
        max_divergence = 0.0
        for processed, ref, got in zip(sample, reference, candidate):
            if not (np.isfinite(ref).all() and np.isfinite(got).all()):
                # Non-finite on either side: argmax and divergence are
                # meaningless — count it as a disagreement.
                max_divergence = float("inf")
                continue
            n = processed.num_stay_points
            if index_to_pair(n, int(np.argmax(ref))) == \
                    index_to_pair(n, int(np.argmax(got))):
                agreements += 1
            max_divergence = max(max_divergence,
                                 float(np.abs(ref - got).max()))
        agreement = agreements / len(sample)
        passed = agreement == 1.0 and max_divergence <= margin
        report = {
            "policy": self.config.inference_dtype,
            "verdict_agreement": agreement,
            "max_abs_divergence": max_divergence,
            "margin": float(margin),
            "num_calibration": len(sample),
            "passed": passed,
        }
        self._parity_report = report
        if self.config.inference_dtype != "float64":
            if passed:
                self._effective_dtype = "float32"
                self._precision_notes = ()
                if len(sample) < self._PARITY_MIN_CALIBRATION:
                    self._precision_notes = (
                        "precision: float32 enabled from a small "
                        f"calibration slice (n={len(sample)} < "
                        f"{self._PARITY_MIN_CALIBRATION}); re-run "
                        "run_parity_gate() with more trajectories to "
                        "confirm",)
            else:
                self._effective_dtype = "float64"
                self._precision_notes = (
                    "precision: float32 parity gate failed "
                    f"(agreement={agreement:.3f}, "
                    f"divergence={max_divergence:.3g} > "
                    f"margin={margin:.3g}); fell back to float64",) \
                    if max_divergence > margin else (
                    "precision: float32 parity gate failed "
                    f"(agreement={agreement:.3f}); fell back to float64",)
                obs_event("precision.fallback", reason="gate-failed",
                          agreement=agreement,
                          max_abs_divergence=max_divergence,
                          margin=float(margin),
                          policy=self.config.inference_dtype)
        return report

    @property
    def parity_report(self) -> dict[str, object] | None:
        """The most recent parity-gate report (``None`` before any run)."""
        return self._parity_report

    def _resolve_inference_dtype(
            self, calibration: list[ProcessedTrajectory]) -> str:
        """The dtype detect calls compute in, gating lazily if needed."""
        if self._effective_dtype is None and calibration:
            self.run_parity_gate(calibration)
        return self._effective_dtype or "float64"

    def _weights_changed(self) -> None:
        """Invalidate what was derived from the old weights.

        Called whenever the weights change (``fit`` retrains, ``load``
        rebinds).  The weight set gets a new token, so no encoding
        state stamped with the old one is read again.  A parity verdict
        reached against the old weights says nothing about the new ones,
        so a float32 policy goes back to "ungated" and the next detect
        call (or an explicit :meth:`run_parity_gate`) re-earns the
        float32 hot path.
        """
        self._weight_set = object()
        self._effective_dtype = (
            "float64" if self.config.inference_dtype == "float64" else None)
        self._parity_report = None
        self._precision_notes = ()

    # ------------------------------------------------------------------
    # Online stage: one inference core for every entry point
    # ------------------------------------------------------------------
    def encode_candidates_batch(self, processed_list:
                                list[ProcessedTrajectory],
                                states: list[EncodingState | None]
                                | None = None) -> list[np.ndarray]:
        """c-vecs of every candidate of each trajectory, shape (N_t, 64).

        One phase-1 compressor pass per branch covers every segment of
        every trajectory, and one phase-2 pass per branch covers every
        (trajectory, start stay point) run; there is no shape bucketing
        here (that is the detector's, see ``_bucketed``).  The list
        lines up with the input order.

        ``states`` (inference only) holds one
        :class:`~repro.encoding.EncodingState` or ``None`` per
        trajectory, as an earlier call left it for a snapshot of the
        same growing trajectory.  A state counts only when its stamp
        matches: these weights, the active compute dtype and the spans
        of the stay points it covers.  Then only the segments, run
        steps and candidates the snapshot added are featurized and
        encoded.  ``states`` is overwritten in place with the states
        after this call, for the caller to keep.
        """
        prior = covered = None
        if states is not None:
            stamp = (self._weight_set, active_dtype_name())
            spans = [tuple((sp.start, sp.end) for sp in p.stay_points)
                     for p in processed_list]
            prior = [state if state is not None and state.key == (
                         stamp, spans_k[:state.stays]) else None
                     for state, spans_k in zip(states, spans)]
            covered = [0 if state is None else state.stays
                       for state in prior]
        with obs_span("detect.featurize",
                      trajectories=len(processed_list)):
            segments = self._segment_lists(processed_list, covered)
        stay_lists = [stay for stay, _ in segments]
        move_lists = [move for _, move in segments]
        pairs_lists = [[c.pair for c in processed.candidates]
                       for processed in processed_list]
        with obs_span("detect.encode",
                      candidates=sum(len(p) for p in pairs_lists)):
            cvecs = self.autoencoder.encode_trajectories(
                stay_lists, move_lists, pairs_lists, prior)
        if states is not None:
            states[:] = [replace(state, key=(stamp, spans_k))
                         for state, spans_k in zip(prior, spans)]
        return cvecs

    def _predict_many(self, processed_list: list[ProcessedTrajectory],
                      direction: str = "both",
                      cvecs_list: list[np.ndarray] | None = None
                      ) -> list[np.ndarray]:
        """Merged distributions (Eq. 13) for many trajectories, *without*
        the finiteness check (callers apply it per trajectory).

        ``direction`` restricts inference to one detector ("forward" /
        "backward"), realizing LEAD-NoBac / LEAD-NoFor: the detectors are
        trained separately (paper §V-B), so dropping one at inference is
        exactly the paper's ablation.  Raises
        :class:`DetectorUnavailableError` when ``direction`` selects no
        live detector.

        The shared detector forward merges every trajectory's subgroups
        into one padded batch; ``segments`` keeps the flat softmax
        per-trajectory, so each returned distribution is independent of
        its batch-mates up to GEMM associativity.  ``cvecs_list`` passes
        c-vecs the caller already encoded.
        """
        if not processed_list:
            return []
        bucket = _bucketed(processed_list)
        if cvecs_list is None:
            cvecs_list = self.encode_candidates_batch(processed_list)
        counts = np.array([len(c) for c in cvecs_list], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        ns = [p.num_stay_points for p in processed_list]
        with no_grad():
            if self.independent_detector is not None:
                with obs_span("detect.score", direction=direction):
                    probs = self.independent_detector(
                        Tensor(np.concatenate(cvecs_list, axis=0))).numpy()
                with obs_span("detect.merge"):
                    return [merge_distributions(probs[int(a):int(b)])
                            for a, b in zip(offsets[:-1], offsets[1:])]
            if direction == "both" and (self.forward_detector is None
                                        or self.backward_detector is None):
                missing = ("forward" if self.forward_detector is None
                           else "backward")
                raise DetectorUnavailableError(
                    f"direction 'both' requires both detectors; the "
                    f"{missing} detector is unavailable")
            forward_detector = (self.forward_detector if direction in (
                "both", "forward") else None)
            backward_detector = (self.backward_detector if direction in (
                "both", "backward") else None)
            with obs_span("detect.score", direction=direction):
                probs = score_groups(
                    forward_detector, backward_detector,
                    Tensor(np.concatenate(cvecs_list, axis=0)), ns, counts,
                    bucket)
            forward, backward = (None if p is None else p.numpy()
                                 for p in probs)
        if forward is None and backward is None:
            raise DetectorUnavailableError(
                f"direction {direction!r} selects no available detector")
        out: list[np.ndarray] = []
        with obs_span("detect.merge"):
            for a, b in zip(offsets[:-1], offsets[1:]):
                fwd = None if forward is None else forward[int(a):int(b)]
                bwd = None if backward is None else backward[int(a):int(b)]
                if fwd is None:
                    out.append(merge_distributions(bwd))
                else:
                    out.append(merge_distributions(fwd, bwd))
        return out

    def detect_processed(self, processed: ProcessedTrajectory,
                         direction: str = "both") -> DetectionResult:
        """Strict single-tier detection of one processed trajectory.

        The evaluation harness uses this directly so ablation numbers
        are never silently polluted by fallback answers; the production
        entry points (:meth:`detect`, :meth:`detect_batch`,
        :meth:`detect_many`) wrap the same core with the degradation
        chain.  ``direction`` ("both" / "forward" / "backward") picks
        the detectors as in :meth:`_predict_many`.  Raises
        :class:`DetectorUnavailableError` when ``direction`` selects no
        live detector and :class:`NumericalInstabilityError` when the
        distribution is not finite.
        """
        self._require_fitted()
        distribution = self._predict_many([processed], direction)[0]
        if not np.isfinite(distribution).all():
            raise NumericalInstabilityError(
                "detector produced a non-finite probability distribution")
        tier = {"both": "both", "forward": "forward-only",
                "backward": "backward-only"}.get(direction, direction)
        if self.independent_detector is not None:
            tier = "independent"
        pair = index_to_pair(processed.num_stay_points,
                             int(np.argmax(distribution)))
        return DetectionResult(pair, distribution, processed,
                               DetectionProvenance(tier=tier))

    # ------------------------------------------------------------------
    # Telemetry plumbing (no-ops unless a bundle is active; see
    # repro.obs — outputs are bit-identical with telemetry on or off,
    # except that degraded provenance gains an event-correlating note)
    # ------------------------------------------------------------------
    @staticmethod
    def _observed(name: str, fn, **attrs):
        """Run ``fn`` inside a root span + latency histogram."""
        return obs_timed(name, fn, "lead_latency_seconds",
                         "wall time of LEAD entry points",
                         labels={"op": name}, **attrs)

    def _degradation_note(self, tier: str, notes: list[str],
                          sanitized: bool,
                          compute_dtype: str) -> str | None:
        """Emit a ``detection.degraded`` event; return the note citing it.

        The returned note (``obs: degradation event e000123``) is
        appended to the verdict's provenance, so an auditor can join a
        degraded result to the structured event that explains it.  When
        telemetry is off, no note is added and provenance is
        byte-identical to the pre-obs pipeline.
        """
        event = obs_event("detection.degraded", tier=tier,
                          sanitized=sanitized,
                          compute_dtype=compute_dtype, notes=list(notes))
        if event is None:
            return None
        return f"obs: degradation event {event['id']}"

    @staticmethod
    def _count_verdict(tier: str) -> None:
        ob = active_obs()
        if ob is not None:
            ob.registry.counter(
                "detect_verdicts_total",
                help="detection verdicts by answering tier",
                labels={"tier": tier}).inc()

    def detect(self, trajectory: Trajectory) -> DetectionResult | None:
        """Full online pipeline on a raw trajectory, never crashing.

        The input is validated and repaired (non-finite fixes dropped),
        then detection walks the tier chain until one answers.  Returns
        ``None`` only when no candidate exists — too few stay points, or
        the trajectory was unsalvageable.  Raises only
        :class:`NotFittedError` (API misuse, not input hostility).
        """
        self._require_fitted()
        return self._observed("detect",
                              lambda: self._detect_raw([trajectory])[0])

    def detect_batch(self, trajectories: list[Trajectory]
                     ) -> list[DetectionResult | None]:
        """:meth:`detect` over many raw trajectories in one pass.

        Sanitization and processing run per trajectory (they are cheap
        and can fail independently); every surviving trajectory's
        candidates then share batched encoder and detector forwards.
        The degradation chain is preserved per trajectory: a trajectory
        whose distribution is non-finite at one tier retries the lower
        tiers alone.  Returns one entry per input, ``None`` where
        :meth:`detect` would return ``None``.
        """
        self._require_fitted()
        return self._observed("detect_batch",
                              lambda: self._detect_raw(trajectories),
                              trajectories=len(trajectories))

    def _detect_raw(self, trajectories: list[Trajectory]
                    ) -> list[DetectionResult | None]:
        """Sanitize -> process -> tier walk, shared by every raw entry."""
        results: list[DetectionResult | None] = [None] * len(trajectories)
        pending_idx: list[int] = []
        pending_processed: list[ProcessedTrajectory] = []
        pending_notes: list[list[str]] = []
        survivors: list[tuple[int, Trajectory, list[str]]] = []
        with obs_span("detect.sanitize"):
            for idx, trajectory in enumerate(trajectories):
                try:
                    trajectory, sanitize_notes = \
                        sanitize_trajectory(trajectory)
                except InvalidTrajectoryError:
                    # Unsalvageable input: report "no detection" like
                    # too-few stay points rather than crash a serving loop.
                    continue
                survivors.append((idx, trajectory, list(sanitize_notes)))
        with obs_span("detect.extract"):
            for idx, trajectory, sanitize_notes in survivors:
                try:
                    processed = self.processor.process(trajectory)
                except (ValueError, ArithmeticError):
                    continue
                if processed is None:
                    continue
                pending_idx.append(idx)
                pending_processed.append(processed)
                pending_notes.append(sanitize_notes)
        detected = self._detect_many_with_degradation(pending_processed,
                                                      pending_notes)
        for idx, result in zip(pending_idx, detected):
            results[idx] = result
        return results

    def detect_many(self, processed_list: list[ProcessedTrajectory],
                    notes_list: list[list[str]] | None = None,
                    states: list[EncodingState | None] | None = None
                    ) -> list[DetectionResult]:
        """Degradation-aware batched detection over processed snapshots.

        The serving contract of the streaming layer
        (:class:`repro.stream.FleetSessionManager`): callers that already
        hold :class:`~repro.processing.ProcessedTrajectory` snapshots —
        and, optionally, the sanitize provenance notes that produced
        them — get one tier walk over the whole batch, the same one
        :meth:`detect` runs.  Results line up with the input order.
        ``states`` carries each snapshot's encoding state in and the
        new one out, as in :meth:`encode_candidates_batch`; a caller
        that keeps them commits them only once this call returned.
        """
        self._require_fitted()
        if notes_list is None:
            notes_list = [[] for _ in processed_list]
        if len(notes_list) != len(processed_list):
            raise ValueError(
                f"notes_list length {len(notes_list)} != processed_list "
                f"length {len(processed_list)}")
        if states is not None and len(states) != len(processed_list):
            raise ValueError(
                f"states length {len(states)} != processed_list "
                f"length {len(processed_list)}")
        return self._observed(
            "detect_many",
            lambda: self._detect_many_with_degradation(
                processed_list, [list(n) for n in notes_list], states),
            trajectories=len(processed_list))

    def _detect_many_with_degradation(
            self, processed_list: list[ProcessedTrajectory],
            notes_list: list[list[str]],
            states: list[EncodingState | None] | None = None
            ) -> list[DetectionResult]:
        """Walk the tier chain; every result is provenance-tagged.

        The candidates are encoded once; each tier then scores the
        trajectories still unresolved in one batched forward.
        Structural failures (a direction with no live detector)
        disqualify the tier for everyone, while per-trajectory numerical
        failures only push that trajectory down to the next tier.
        """
        if not processed_list:
            return []
        results: list[DetectionResult | None] = [None] * len(processed_list)
        compute_dtype = self._resolve_inference_dtype(processed_list)
        with inference_dtype(compute_dtype):
            cvecs = self.encode_candidates_batch(processed_list, states)
        notes = [list(n) + list(self._precision_notes) for n in notes_list]
        sanitized = [bool(n) for n in notes_list]
        if self.independent_detector is not None:
            tiers: tuple[tuple[str, str], ...] = (("independent", "both"),)
        else:
            tiers = _TIER_DIRECTIONS
        pending = list(range(len(processed_list)))
        for tier, direction in tiers:
            if not pending:
                break
            try:
                with inference_dtype(compute_dtype):
                    raw = self._predict_many(
                        [processed_list[k] for k in pending], direction,
                        [cvecs[k] for k in pending])
            except DetectorUnavailableError as exc:
                obs_event("detection.tier_failed", tier=tier,
                          error=str(exc), trajectories=len(pending))
                for k in pending:
                    notes[k].append(f"tier {tier!r} failed: {exc}")
                continue
            unresolved: list[int] = []
            for k, distribution in zip(pending, raw):
                if not np.isfinite(distribution).all():
                    exc = NumericalInstabilityError(
                        "detector produced a non-finite probability "
                        "distribution")
                    obs_event("detection.tier_failed", tier=tier,
                              error=str(exc), trajectories=1)
                    notes[k].append(f"tier {tier!r} failed: {exc}")
                    unresolved.append(k)
                    continue
                processed = processed_list[k]
                pair = index_to_pair(processed.num_stay_points,
                                     int(np.argmax(distribution)))
                if tier not in ("both", "independent"):
                    extra = self._degradation_note(
                        tier, notes[k], sanitized[k], compute_dtype)
                    if extra is not None:
                        notes[k].append(extra)
                self._count_verdict(tier)
                results[k] = DetectionResult(
                    pair, distribution, processed,
                    DetectionProvenance(tier=tier, sanitized=sanitized[k],
                                        notes=tuple(notes[k]),
                                        compute_dtype=compute_dtype))
            pending = unresolved
        for k in pending:
            results[k] = self._fallback_result(processed_list[k], notes[k],
                                               sanitized[k])
        return results  # type: ignore[return-value]

    def _fallback_result(self, processed: ProcessedTrajectory,
                         notes: list[str],
                         sanitized: bool) -> DetectionResult:
        """Terminal tier: the first->last candidate, the single most
        common loaded pattern in a one-day haul (depot out, depot back)."""
        pair = (1, processed.num_stay_points)
        distribution = np.full(processed.num_candidates,
                               1.0 / processed.num_candidates)
        distribution[processed.candidate_index(pair)] = 1.0
        extra = self._degradation_note("heuristic", notes, sanitized,
                                       "float64")
        if extra is not None:
            notes = notes + [extra]
        self._count_verdict("heuristic")
        return DetectionResult(
            pair, distribution, processed,
            DetectionProvenance(tier="heuristic", sanitized=sanitized,
                                notes=tuple(notes)))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("LEAD is not fitted; call fit() first")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Persist trained weights and the normalizer.

        Every file is written atomically and a checksummed
        ``manifest.json`` covers the directory, so :meth:`load` detects
        torn or corrupted artifacts as a typed error.
        """
        self._require_fitted()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[str] = []
        for name, module in self._detector_modules().items():
            save_module(module, directory / f"{name}.npz")
            written.append(f"{name}.npz")
        payload = {"normalizer": self.featurizer.normalizer.to_dict()}
        atomic_write_json(directory / "state.json", payload)
        written.append("state.json")
        write_manifest(directory, written, kind="lead-model",
                       meta={"seed": self.config.seed,
                             "detectors": sorted(self._detector_modules()),
                             "dtype_policy": self.config.inference_dtype})
        return directory

    def _detector_modules(self) -> dict[str, object]:
        modules: dict[str, object] = {"autoencoder": self.autoencoder}
        if self.forward_detector is not None:
            modules["forward"] = self.forward_detector
        if self.backward_detector is not None:
            modules["backward"] = self.backward_detector
        if self.independent_detector is not None:
            modules["independent"] = self.independent_detector
        return modules

    def load(self, directory: str | Path, *,
             calibration: Sequence[ProcessedTrajectory] | None = None,
             ) -> "LEAD":
        """Load weights saved by :meth:`save` (config must match).

        Verifies the manifest and raises :class:`ArtifactCorruptedError`
        / ``FileNotFoundError`` on any missing or damaged file.  A
        manifest recording an unknown ``dtype_policy`` is rejected the
        same way — it means the artifact was produced by a newer (or
        tampered-with) precision scheme this build cannot honor.  When
        ``calibration`` trajectories are supplied and the configured
        policy is not ``"float64"``, the float32/float64 parity gate
        runs here instead of lazily at the first detect call.
        """
        directory = Path(directory)
        manifest = verify_manifest(directory)
        policy = ("float64" if manifest is None
                  else manifest.meta.get("dtype_policy", "float64"))
        if policy not in VALID_DTYPES:
            raise ArtifactCorruptedError(
                directory / "manifest.json",
                f"unknown recorded dtype policy {policy!r}")
        for name, module in self._detector_modules().items():
            load_module(module, directory / f"{name}.npz")
        payload = load_checked_json(directory / "state.json")
        try:
            self.featurizer.normalizer = ZScoreNormalizer.from_dict(
                payload["normalizer"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactCorruptedError(
                directory / "state.json",
                f"invalid normalizer state: {exc}") from exc
        self._fitted = True
        self._weights_changed()
        if calibration and self.config.inference_dtype != "float64":
            self.run_parity_gate(list(calibration))
        return self
