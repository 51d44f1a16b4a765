"""Patient-grouped, label-stratified k-fold assignment.

All lesions of one patient land in one fold.  Patients are stratified by
patient-level label (malignant if any of their lesions is malignant),
shuffled by the seed within each stratum, and dealt round-robin into folds,
so per-stratum fold sizes differ by at most one patient.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, TooFewGroups


@dataclass(frozen=True)
class FoldAssignment:
    fold: np.ndarray                 # fold index per row
    patient_label: dict[str, int]


def grouped_stratified_folds(groups, labels, k: int, seed) -> FoldAssignment:
    groups = list(groups)
    labels = np.asarray(labels, dtype=int)
    if len(groups) != labels.shape[0]:
        raise LengthMismatch(f"{len(groups)} groups vs {labels.shape[0]} labels")

    patient_label: dict[str, int] = {}
    order: list[str] = []
    for g, lab in zip(groups, labels):
        if g not in patient_label:
            patient_label[g] = 0
            order.append(g)
        if lab == 1:
            patient_label[g] = 1

    strata = {lab: [g for g in order if patient_label[g] == lab] for lab in (0, 1)}
    for lab, members in strata.items():
        if len(members) < k:
            raise TooFewGroups(
                f"stratum {lab} has {len(members)} patients, need at least {k}")

    rng = np.random.default_rng(seed)
    patient_fold: dict[str, int] = {}
    for lab in (0, 1):
        members = strata[lab]
        shuffled = [members[i] for i in rng.permutation(len(members))]
        for pos, g in enumerate(shuffled):
            patient_fold[g] = pos % k
    fold = np.array([patient_fold[g] for g in groups], dtype=int)
    return FoldAssignment(fold=fold, patient_label=patient_label)
