"""Training-set construction by self-referencing (relocking).

The oracle-less SnapShot attack cannot query a working chip, so it creates its
own labelled data: the locked *target* design is relocked again and again with
fresh random keys (which the attacker chose, hence knows), and the localities
of those new key bits become labelled training samples (Fig. 2 of the paper,
"Relocking" / "Extraction" steps).

The paper relocks with *random* ASSURE selection "so that all parts of the
design were used for learning"; :class:`TrainingSetBuilder` does the same.
One :class:`~repro.locking.base.LockingSession` serves every round of a
training set: each round locks the target in place and rolls the locks
back through the session's undo stack, which leaves the session equal to a
freshly opened one, so the loop neither copies the design nor re-reads its
operation sites.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..locking.assure import AssureLocker
from ..locking.pairs import PairTable
from ..rtlir.design import Design
from .locality import LocalityExtractor

_log = logging.getLogger(__name__)


@dataclass
class TrainingSet:
    """Labelled localities assembled from relocking rounds of the target."""

    features: np.ndarray
    labels: np.ndarray
    rounds: int
    bits_per_round: int

    @property
    def size(self) -> int:
        """Number of training samples."""
        return int(self.features.shape[0])

    def label_balance(self) -> float:
        """Fraction of samples with label 1 (0.5 = perfectly balanced)."""
        if self.labels.size == 0:
            return 0.0
        return float(np.mean(self.labels == 1))


class TrainingSetBuilder:
    """Build a SnapShot training set by relocking the target design.

    Args:
        extractor: Locality extractor (shared with the deployment step so the
            feature space matches).
        relock_budget: Key bits added per relocking round; defaults to the
            number of key bits already present in the target (i.e. the same
            budget the defender used).
        rounds: Number of relocking rounds.
        pair_table: Pair table used for relocking (the attacker knows the
            locking scheme, threat-model assumption 2).
        rng: Random source.
    """

    def __init__(self, extractor: Optional[LocalityExtractor] = None,
                 relock_budget: Optional[int] = None, rounds: int = 20,
                 pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None) -> None:
        if rounds < 1:
            raise ValueError("at least one relocking round is required")
        self.extractor = extractor or LocalityExtractor()
        self.relock_budget = relock_budget
        self.rounds = rounds
        self.pair_table = pair_table
        self.rng = rng or random.Random()

    def build(self, target: Design,
              progress: Optional[Callable[[int, int], None]] = None
              ) -> TrainingSet:
        """Relock ``target`` ``rounds`` times and extract labelled localities.

        One random-selection ASSURE session is opened on ``target`` for the
        whole build.  Each round re-seeds the locker's random source,
        relocks ``target`` in place, extracts the localities of the round's
        new key bits and rolls the locks back through the session's undo
        stack, so no round copies the design or opens a session.  ``target``
        is left exactly as it was — also when extraction raises — but it
        must not be read by anyone else while ``build`` runs.

        Simulation-backed feature sets (``behavioral``) evaluate all of a
        round's fresh key bits as lanes of a single bit-parallel key sweep
        (:func:`repro.locking.metrics.key_bit_sensitivity`), one pass per
        relocked design instead of one pass per key bit.

        Args:
            target: The locked design to self-reference against.
            progress: Optional callback invoked as ``progress(done, rounds)``
                after every relocking round — long sweeps (the paper uses
                1000 rounds) can report liveness without threading state
                through the attack.  A raising hook is logged and ignored:
                an observer must not abort the sweep.

        Raises:
            ValueError: if the target is not locked (there is nothing to
                self-reference against).
        """
        if not target.is_locked:
            raise ValueError("the target design must be locked")
        budget = self.relock_budget or target.key_width
        original_width = target.key_width

        locker = AssureLocker(selection="random", pair_table=self.pair_table,
                              rng=random.Random(), track_metrics=False)
        session = locker.open_session(target)
        feature_blocks: List[np.ndarray] = []
        label_blocks: List[np.ndarray] = []
        for round_index in range(self.rounds):
            # ``seed(n)`` starts the stream ``Random(n)`` would, so every
            # round draws what a locker of its own would have drawn.  The
            # rollback below leaves the session as freshly opened, so each
            # round sees exactly the design and ODT a copy would have.
            locker.rng.seed(self.rng.getrandbits(64))
            try:
                locker.lock_session(session, key_budget=budget)
                features, labels = self.extractor.extract_matrix(
                    target, key_indices=list(range(original_width,
                                                   target.key_width)))
            finally:
                session.rollback()
            feature_blocks.append(features)
            label_blocks.append(labels)
            if progress is not None:
                try:
                    progress(round_index + 1, self.rounds)
                except Exception:
                    _log.warning("progress hook raised on round %d/%d; "
                                 "continuing", round_index + 1, self.rounds,
                                 exc_info=True)

        features = np.vstack(feature_blocks) if feature_blocks else np.zeros((0, self.extractor.n_features))
        labels = np.concatenate(label_blocks) if label_blocks else np.zeros((0,), dtype=int)
        return TrainingSet(features=features, labels=labels, rounds=self.rounds,
                           bits_per_round=budget)
