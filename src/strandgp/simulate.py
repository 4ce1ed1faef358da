"""Synthetic data generated from the model, for integration and acceptance runs.

Builds a random strand layout, draws unit effects either from the
Gaussian-process prior or as planted signals, draws the error covariance
from its inverse-Wishart prior, and emits case/control tables whose
difference reproduces the simulated differentials exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import (ExpressionDataset, GenomeAnnotation, StrandRecord, build_design_matrix,
                   write_annotation, write_expression, write_lengths)
from .kernels import StrandHyperParams, prior_cov_psi, sample_psi_prior
from .util import write_csv

_STRAND_LENGTH = 1e4  # bp; every simulated strand has this length


@dataclass(frozen=True)
class SimulatedData:
    mirna_names: tuple
    patient_ids: tuple
    case: np.ndarray
    control: np.ndarray
    z: np.ndarray
    annotation: GenomeAnnotation
    psi_true: np.ndarray
    hypers: tuple

    @property
    def truly_deregulated(self) -> np.ndarray:
        return np.abs(self.psi_true) > 1.0


def simulate_dataset(m: int, n: int, k: int, seed: int = 0,
                     psi_mode: str = "gp",
                     planted: int = 0, signal: float = 2.5,
                     varrho2: float = 4.0, nu: float = 1.5,
                     rho_fraction: float = 0.3,
                     delta2: float = 1.0,
                     multi_locus_fraction: float = 0.1) -> SimulatedData:
    """Generate one dataset from the model.

    Every strand is 1e4 bp long, and the loci on a strand sit at distinct
    integer coordinates in [1, 1e4).

    Args:
        m, n, k: unit, patient, and strand counts.
        psi_mode: "gp" draws effects from the strand-blocked prior at the
            fixed hyperparameters below; "planted" zeroes the effects except
            for ``planted`` entries (at most m) set to +-``signal``
            (alternating sign).
        varrho2, nu, rho_fraction: shared hyperparameters; the correlation
            length is ``rho_fraction`` times the strand length.
        delta2: inverse-Wishart scale parameter of the error covariance.
        multi_locus_fraction: fraction of units receiving a second locus on
            another strand.
    """
    if k < 1 or m < k:
        raise ValueError("need at least one strand and m >= k")
    if psi_mode == "planted" and not 0 <= planted <= m:
        raise ValueError(f"planted must lie in [0, m], got {planted} with m = {m}")
    from scipy import stats  # deferred: only simulate needs it, and its import takes about 1 s

    rng = np.random.default_rng(seed)
    names = tuple(f"mir-{i:04d}" for i in range(m))
    patients = tuple(f"patient-{j:02d}" for j in range(n))

    # Units round-robin over strands; coordinates distinct within a strand.
    per_strand: dict[str, list] = {}
    strand_ids = [f"Chr{i + 1}{'+' if i % 2 == 0 else '-'}" for i in range(k)]
    for i, name in enumerate(names):
        sid = strand_ids[i % k]
        per_strand.setdefault(sid, []).append(name)
    extra = rng.choice(m, size=int(multi_locus_fraction * m), replace=False) if k > 1 else []
    for i in extra:
        home = strand_ids[i % k]
        away = strand_ids[(i + 1) % k]
        if away != home:
            per_strand.setdefault(away, []).append(names[i])

    strands = []
    for sid in sorted(per_strand):
        members = per_strand[sid]
        coords = np.sort(rng.choice(np.arange(1, int(_STRAND_LENGTH)), size=len(members), replace=False)).astype(float)
        loci = tuple((name, float(c)) for name, c in zip(members, coords))
        strands.append(StrandRecord(strand_id=sid, length=_STRAND_LENGTH, loci=loci))
    annotation = GenomeAnnotation(strands=tuple(strands))
    design = build_design_matrix(annotation, names)

    hypers = tuple(StrandHyperParams(varrho2, nu, rho_fraction * _STRAND_LENGTH)
                   for _ in range(design.n_strands))
    if psi_mode == "gp":
        pc = prior_cov_psi(design, hypers)
        psi = sample_psi_prior(pc, 1, rng)[0]
    elif psi_mode == "planted":
        psi = np.zeros(m)
        chosen = rng.choice(m, size=planted, replace=False)
        signs = np.where(np.arange(chosen.size) % 2 == 0, -1.0, 1.0)
        psi[chosen] = signs * signal
    else:
        raise ValueError(f"unknown psi_mode {psi_mode!r}")

    ups = m + 3
    sigma = np.atleast_2d(stats.invwishart.rvs(df=ups, scale=delta2 * np.eye(m), random_state=rng))
    chol = np.linalg.cholesky(sigma)
    tau = rng.standard_normal((n, m)) @ chol.T
    z = psi[None, :] + tau
    control = rng.standard_normal((n, m))
    case = control + z
    return SimulatedData(mirna_names=names, patient_ids=patients, case=case,
                         control=control, z=z, annotation=annotation,
                         psi_true=psi, hypers=hypers)


def write_simulated(sim: SimulatedData, outdir) -> dict:
    """Write case/control/annotation/lengths/truth CSVs; returns the path
    map.  Read back with its lengths file, the annotation has the
    generator's strand lengths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "case": os.path.join(outdir, "case.csv"),
        "control": os.path.join(outdir, "control.csv"),
        "annotation": os.path.join(outdir, "annotation.csv"),
        "lengths": os.path.join(outdir, "lengths.csv"),
        "truth": os.path.join(outdir, "truth.csv"),
    }
    dataset = ExpressionDataset(sim.patient_ids, sim.mirna_names, sim.case, sim.control, None)
    write_expression(dataset, paths["case"], paths["control"])
    write_annotation(sim.annotation, paths["annotation"])
    write_lengths(sim.annotation, paths["lengths"])
    write_csv(paths["truth"], ["mirna", "psi_true", "deregulated"],
              ([name, value, int(flag)]
               for name, value, flag in zip(sim.mirna_names, sim.psi_true, sim.truly_deregulated)))
    return paths
