"""Input parsing and model geometry.

Two kinds of input drive everything downstream:

* paired expression tables (case and control, wide CSV, one row per
  patient) from which the differential matrix ``z = case - control`` is
  computed, and
* a genome annotation mapping each measured unit (miRNA) to one or more
  (strand, coordinate) loci, from which the 0/1 incidence matrix ``P`` is
  built.  A unit annotated at q loci has q ones in its row, so its latent
  effect is the sum of the per-locus effects.

All containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError
from .util import connected_components, write_csv

_STRAND_SYMBOLS = {"+": "+", "-": "-", "−": "-", "–": "-"}


def _normalize_strand(symbol: str) -> str:
    symbol = symbol.strip()
    if symbol not in _STRAND_SYMBOLS:
        raise DataError(f"unknown strand symbol {symbol!r} (expected '+' or '-')")
    return _STRAND_SYMBOLS[symbol]


@dataclass(frozen=True)
class ExpressionDataset:
    """Aligned case/control expression matrices and their difference.

    Attributes:
        patient_ids: n patient identifiers, row order of all matrices.
        mirna_names: m unique names, column order of all matrices.
        case: n x m matrix (disease tissue).
        control: n x m matrix (normal tissue).
        z: n x m differential matrix, exactly ``case - control``.
    """

    patient_ids: tuple[str, ...]
    mirna_names: tuple[str, ...]
    case: np.ndarray
    control: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        case = np.asarray(self.case, dtype=float)
        control = np.asarray(self.control, dtype=float)
        n, m = case.shape
        if control.shape != (n, m):
            raise DataError(f"case {case.shape} and control {control.shape} dimensions differ")
        if len(self.patient_ids) != n or len(self.mirna_names) != m:
            raise DataError("label lengths do not match matrix dimensions")
        if len(set(self.mirna_names)) != m:
            raise DataError("duplicate miRNA names")
        if len(set(self.patient_ids)) != n:
            raise DataError("duplicate patient ids")
        if not (np.isfinite(case).all() and np.isfinite(control).all()):
            raise DataError("non-finite entries in expression matrices")
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "z", case - control)
        for name in ("case", "control", "z"):
            getattr(self, name).setflags(write=False)

    @property
    def n_patients(self) -> int:
        return self.case.shape[0]

    @property
    def n_mirnas(self) -> int:
        return self.case.shape[1]

    def drop_patient(self, index: int) -> "ExpressionDataset":
        """Dataset with one patient row removed (used by leave-one-out)."""
        keep = [j for j in range(self.n_patients) if j != index]
        if len(keep) == self.n_patients:
            raise DataError(f"patient index {index} out of range")
        return ExpressionDataset(
            patient_ids=tuple(self.patient_ids[j] for j in keep),
            mirna_names=self.mirna_names,
            case=self.case[keep],
            control=self.control[keep],
            z=None,  # recomputed in __post_init__
        )


@dataclass(frozen=True)
class StrandRecord:
    """One chromosome strand: its length and the ordered loci on it."""

    strand_id: str
    length: float
    loci: tuple[tuple[str, float], ...]  # (mirna_name, coordinate), ascending

    @property
    def coordinates(self) -> np.ndarray:
        return np.array([c for _, c in self.loci], dtype=float)

    @property
    def mirnas(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.loci)


@dataclass(frozen=True)
class GenomeAnnotation:
    """Strand partition of all annotated loci."""

    strands: tuple[StrandRecord, ...]

    @property
    def n_strands(self) -> int:
        return len(self.strands)

    @property
    def total_loci(self) -> int:
        return sum(len(s.loci) for s in self.strands)

    @property
    def annotated_names(self) -> set[str]:
        return {name for s in self.strands for name, _ in s.loci}

    def restrict(self, names) -> "GenomeAnnotation":
        """Drop loci of units not in ``names``; drop strands left empty."""
        wanted = set(names)
        kept = []
        for s in self.strands:
            loci = tuple(loc for loc in s.loci if loc[0] in wanted)
            if loci:
                kept.append(StrandRecord(s.strand_id, s.length, loci))
        return GenomeAnnotation(strands=tuple(kept))


@dataclass(frozen=True)
class DesignMatrix:
    """Incidence matrix mapping units to loci, plus the strand geometry.

    ``p`` is m x L with exactly one 1 per column (each locus expresses one
    unit) and at least one 1 per row.  Columns are ordered strand by strand
    (strand ids sorted lexicographically), coordinates ascending within a
    strand; ``strand_slices[l]`` is the column range of strand l.
    """

    p: np.ndarray
    mirna_names: tuple[str, ...]
    annotation: GenomeAnnotation  # restricted to the named units, in column order

    def __post_init__(self):
        self.p.setflags(write=False)

    @property
    def n_mirnas(self) -> int:
        return self.p.shape[0]

    @property
    def n_loci(self) -> int:
        return self.p.shape[1]

    @property
    def n_strands(self) -> int:
        return self.annotation.n_strands

    @property
    def strand_slices(self) -> tuple[slice, ...]:
        out, start = [], 0
        for s in self.annotation.strands:
            out.append(slice(start, start + len(s.loci)))
            start += len(s.loci)
        return tuple(out)

    @cached_property
    def covariance_index(self) -> "CovarianceIndex":
        """Index of the effect covariance ``P W P^T``, built on first use."""
        return CovarianceIndex.from_design(self)


@dataclass(frozen=True)
class CovarianceIndex:
    """Where every entry of the effect covariance ``P W P^T`` comes from.

    Strands are independent a priori, so an entry (i, j) is a sum of Matern
    covariances between the loci of unit i and the loci of unit j that share
    a strand.  Strands linked by a multi-locus unit form a component; units
    of different components are uncorrelated, so the covariance is block
    diagonal up to a permutation of the units, one block per component.

    The blocks are stored packed: component c occupies
    ``[offset_c, offset_c + size_c**2)`` of a flat buffer, row-major over
    its units in ascending order.  One covariance evaluation is a weighted
    ``np.bincount`` of ``targets``: the weights are the locus variances
    (one per locus) followed by the pair covariances twice (upper, then
    lower triangle).  Each of the three groups runs strand by strand, and
    an entry draws on one group only (bar the variance of a unit with two
    loci on one strand), so ``bincount`` adds an entry's terms in the order
    of the dense congruence ``sum_s P_s W_s P_s^T`` and both give the same
    floating-point sums.

    Attributes:
        n_units: m.
        n_strands: k.
        locus_strand: strand of each locus (design column order).
        locus_unit: unit of each locus.
        pair_strand, pair_dist: strand and distance of every locus pair
            sharing a strand (upper triangle, strand by strand).
        strand_span: largest pair distance of each strand (1 where a
            strand has one locus).
        pair_units: (P, 2) units of each pair, smaller index first.
        same_unit_pairs: the pairs whose two loci belong to one unit.
        components: ascending unit indices of each component, ordered by
            their first strand.
        unit_order: the components' units concatenated.
        spans: (start in ``unit_order``, size, packed offset) per component.
        targets: packed position of every contribution (see above).
        unit_diag: packed position of each unit's variance, in unit order.
        packed_size: length of the packed buffer.
        derived: values that another module computes from the index once
            and keeps here under its own key (``kernels`` keeps its pair
            layouts); not compared.
    """

    n_units: int
    n_strands: int
    locus_strand: np.ndarray
    locus_unit: np.ndarray
    pair_strand: np.ndarray
    pair_dist: np.ndarray
    strand_span: np.ndarray
    pair_units: np.ndarray
    same_unit_pairs: np.ndarray
    components: tuple
    unit_order: np.ndarray
    spans: tuple
    targets: np.ndarray
    unit_diag: np.ndarray
    packed_size: int
    derived: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_design(cls, design: "DesignMatrix") -> "CovarianceIndex":
        """Raises ValueError when a coordinate is not finite or two loci of a
        strand share one."""
        m, k = design.n_mirnas, design.n_strands
        locus_unit = np.argmax(design.p, axis=0)  # one 1 per column
        sizes = [len(s.loci) for s in design.annotation.strands]
        locus_strand = np.repeat(np.arange(k), sizes)

        # A unit's loci tie their strands together: each unit's home strand
        # (one of its loci's) is joined to the strand of each of its loci.
        home = np.empty(m, dtype=np.intp)
        home[locus_unit] = locus_strand
        linked = connected_components(k, zip(home[locus_unit].tolist(), locus_strand.tolist()))
        strand_comp = np.empty(k, dtype=np.intp)
        for c, strands in enumerate(linked):
            strand_comp[strands] = c
        unit_comp = strand_comp[home]
        components = tuple(np.flatnonzero(unit_comp == c) for c in range(len(linked)))

        local = np.empty(m, dtype=np.intp)
        offset = np.empty(m, dtype=np.intp)
        width = np.empty(m, dtype=np.intp)
        spans, start, packed = [], 0, 0
        for units in components:
            n = units.size
            local[units] = np.arange(n)
            offset[units] = packed
            width[units] = n
            spans.append((start, n, packed))
            start += n
            packed += n * n

        pair_strand, pair_dist, pair_units = [], [], []
        for s, (strand, cols) in enumerate(zip(design.annotation.strands, design.strand_slices)):
            coords = strand.coordinates
            if not np.isfinite(coords).all():
                raise ValueError(f"coordinates on strand {strand.strand_id} must be finite")
            a, b = np.triu_indices(coords.size, 1)
            dist = np.abs(coords[:, None] - coords[None, :])[a, b]
            if not (dist > 0.0).all():
                raise ValueError(f"coordinates on strand {strand.strand_id} must be distinct")
            units = locus_unit[cols]
            pair_strand.append(np.full(a.size, s))
            pair_dist.append(dist)
            pair_units.append(np.sort(np.column_stack([units[a], units[b]]), axis=1))
        pair_strand = np.concatenate(pair_strand)
        pair_dist = np.concatenate(pair_dist)
        pair_units = np.concatenate(pair_units).reshape(-1, 2)
        strand_span = np.ones(k)
        if pair_dist.size:
            # The strands with pairs, ascending (np.unique would import numpy.ma).
            has_pairs = np.flatnonzero(np.bincount(pair_strand, minlength=k))
            strand_span[has_pairs] = np.maximum.reduceat(pair_dist,
                                                         np.searchsorted(pair_strand, has_pairs))

        ui, uj = pair_units[:, 0], pair_units[:, 1]
        unit_diag = offset + local * (width + 1)
        targets = np.concatenate([
            unit_diag[locus_unit],
            offset[ui] + local[ui] * width[ui] + local[uj],
            offset[ui] + local[uj] * width[ui] + local[ui],
        ])
        index = cls(
            n_units=m, n_strands=k, locus_strand=locus_strand, locus_unit=locus_unit,
            pair_strand=pair_strand, pair_dist=pair_dist, strand_span=strand_span,
            pair_units=pair_units,
            same_unit_pairs=np.flatnonzero(ui == uj),
            components=components, unit_order=np.concatenate(components),
            spans=tuple(spans), targets=targets, unit_diag=unit_diag, packed_size=packed,
        )
        for value in vars(index).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        for units in components:
            units.setflags(write=False)
        return index

    @property
    def largest_component(self) -> int:
        return max(size for _, size, _ in self.spans)


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataError(f"{path}: empty file")
    return rows


def _parse_wide_expression(path) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Returns (patient_ids, mirna_names, values, missing_mask) for one file."""
    rows = _read_rows(path)
    header = [c.strip() for c in rows[0]]
    if len(header) < 2:
        raise DataError(f"{path}: header must be 'patient,<name>,...'")
    names = header[1:]
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"{path}: duplicate miRNA column {name!r}")
        seen.add(name)
    if len(rows) < 2:
        raise DataError(f"{path}: no patient rows below the header")
    patients, values, missing = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        patients.append(row[0].strip())
        vals, miss = [], []
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if cell == "":
                vals.append(np.nan)
                miss.append(True)
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r} in column {name!r}") from None
            vals.append(v)
            miss.append(not np.isfinite(v))
        values.append(vals)
        missing.append(miss)
    if len(set(patients)) != len(patients):
        raise DataError(f"{path}: duplicate patient ids")
    return patients, names, np.array(values, dtype=float), np.array(missing, dtype=bool)


def load_expression(case_path, control_path, drop_incomplete_patients: bool = False) -> ExpressionDataset:
    """Load paired wide-CSV expression files and compute the differential matrix.

    Both files must cover the same patients and the same miRNAs; row and
    column order may differ and is realigned by name.  Missing or
    non-finite cells are a hard error unless ``drop_incomplete_patients``
    is set, in which case the offending patient rows are removed from both
    matrices.

    Args:
        case_path: wide CSV, header ``patient,<mirna>,...`` (disease tissue).
        control_path: same layout for normal tissue.
        drop_incomplete_patients: remove rows with missing cells instead of
            failing.

    Raises:
        DataError: dimension mismatch, a file without patient rows,
            unparseable or missing cells, duplicate names, or differing
            patient/miRNA sets.
    """
    case_pat, case_names, case_vals, case_miss = _parse_wide_expression(case_path)
    ctrl_pat, ctrl_names, ctrl_vals, ctrl_miss = _parse_wide_expression(control_path)

    if set(case_names) != set(ctrl_names):
        only_case = sorted(set(case_names) - set(ctrl_names))[:5]
        only_ctrl = sorted(set(ctrl_names) - set(case_names))[:5]
        raise DataError(f"miRNA sets differ (case-only {only_case}, control-only {only_ctrl})")
    if set(case_pat) != set(ctrl_pat):
        raise DataError("patient sets differ between case and control files")

    # Align control onto the case file's ordering.
    col_of = {name: j for j, name in enumerate(ctrl_names)}
    row_of = {pid: i for i, pid in enumerate(ctrl_pat)}
    col_perm = [col_of[name] for name in case_names]
    row_perm = [row_of[pid] for pid in case_pat]
    ctrl_vals = ctrl_vals[np.ix_(row_perm, col_perm)]
    ctrl_miss = ctrl_miss[np.ix_(row_perm, col_perm)]

    bad_rows = (case_miss.any(axis=1) | ctrl_miss.any(axis=1))
    if bad_rows.any():
        offenders = [pid for pid, bad in zip(case_pat, bad_rows) if bad]
        if not drop_incomplete_patients:
            raise DataError(f"missing/non-finite cells for patients {offenders}")
        keep = ~bad_rows
        case_pat = [pid for pid, k in zip(case_pat, keep) if k]
        case_vals = case_vals[keep]
        ctrl_vals = ctrl_vals[keep]
        if case_vals.shape[0] == 0:
            raise DataError("all patients dropped as incomplete")

    return ExpressionDataset(
        patient_ids=tuple(case_pat),
        mirna_names=tuple(case_names),
        case=case_vals,
        control=ctrl_vals,
        z=None,
    )


def write_expression(dataset: ExpressionDataset, case_path, control_path) -> None:
    """Write the dataset as the wide CSVs ``load_expression`` reads (bit-exact)."""
    for path, matrix in ((case_path, dataset.case), (control_path, dataset.control)):
        write_csv(path, ["patient", *dataset.mirna_names],
                  ([pid, *row] for pid, row in zip(dataset.patient_ids, matrix)))


def load_annotation(path, lengths_path=None) -> GenomeAnnotation:
    """Load a locus annotation CSV into per-strand records.

    The annotation CSV has columns ``mirna,chromosome,strand,coordinate``.
    Loci are grouped per (chromosome, strand); within a strand they are
    sorted by coordinate.  Strand length comes from the optional lengths
    CSV (``chromosome,length``, applied to both strands of a chromosome)
    and otherwise defaults to the largest coordinate observed on the
    strand.  A lengths file must give every annotated chromosome a length
    no smaller than its largest coordinate.

    Raises:
        DataError: unknown strand symbol, non-positive or non-finite
            coordinate or length, a chromosome listed twice in the lengths
            file, an annotated chromosome the lengths file omits or gives a
            length below one of its coordinates, duplicate (strand,
            coordinate) pair, malformed header.
    """
    rows = _read_rows(path)
    header = [c.strip().lower() for c in rows[0]]
    required = ["mirna", "chromosome", "strand", "coordinate"]
    if header[: len(required)] != required:
        raise DataError(f"{path}: header must start with {','.join(required)}")

    lengths = {}
    if lengths_path is not None:
        lrows = _read_rows(lengths_path)
        lheader = [c.strip().lower() for c in lrows[0]]
        if lheader[:2] != ["chromosome", "length"]:
            raise DataError(f"{lengths_path}: header must be chromosome,length")
        for lineno, row in enumerate(lrows[1:], start=2):
            chrom = row[0].strip()
            try:
                length = float(row[1])
            except (ValueError, IndexError):
                raise DataError(f"{lengths_path}:{lineno}: bad length") from None
            if not math.isfinite(length):
                raise DataError(f"{lengths_path}:{lineno}: non-finite length {row[1].strip()!r}")
            if length <= 0:
                raise DataError(f"{lengths_path}:{lineno}: non-positive length")
            if chrom in lengths:
                raise DataError(f"{lengths_path}:{lineno}: second length for chromosome {chrom!r}")
            lengths[chrom] = length

    per_strand: dict[str, list[tuple[str, float]]] = {}
    strand_chrom: dict[str, str] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) < 4:
            raise DataError(f"{path}:{lineno}: expected 4 columns")
        name, chrom, strand, coord_raw = (c.strip() for c in row[:4])
        strand_id = chrom + _normalize_strand(strand)
        try:
            coord = float(coord_raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric coordinate {coord_raw!r}") from None
        if not math.isfinite(coord):
            raise DataError(f"{path}:{lineno}: non-finite coordinate {coord_raw!r} for {name!r}")
        if coord <= 0:
            raise DataError(f"{path}:{lineno}: non-positive coordinate for {name!r}")
        per_strand.setdefault(strand_id, []).append((name, coord))
        strand_chrom[strand_id] = chrom

    records = []
    for strand_id in sorted(per_strand):
        loci = sorted(per_strand[strand_id], key=lambda t: t[1])
        coords = [c for _, c in loci]
        for a, b in zip(coords, coords[1:]):
            if a == b:
                raise DataError(f"duplicate locus at coordinate {a} on strand {strand_id}")
        chrom = strand_chrom[strand_id]
        length = coords[-1]  # the largest coordinate: loci are sorted
        if lengths_path is not None:
            if chrom not in lengths:
                raise DataError(f"{lengths_path}: no length for chromosome {chrom!r}, "
                                f"which the annotation places loci on")
            if lengths[chrom] < length:
                raise DataError(f"{lengths_path}: length {lengths[chrom]:g} of chromosome "
                                f"{chrom!r} is below its locus at coordinate {length:g}")
            length = lengths[chrom]
        records.append(StrandRecord(strand_id=strand_id, length=length, loci=tuple(loci)))
    return GenomeAnnotation(strands=tuple(records))


def write_lengths(annotation: GenomeAnnotation, path) -> None:
    """Write the strand lengths as the lengths CSV ``load_annotation`` reads
    (``chromosome,length``), one row per chromosome in strand order.

    Raises:
        ValueError: the two strands of a chromosome differ in length, which
            one row cannot hold.
    """
    lengths = {}
    for strand in annotation.strands:
        chrom = strand.strand_id[:-1]
        if lengths.setdefault(chrom, strand.length) != strand.length:
            raise ValueError(f"the strands of chromosome {chrom!r} differ in length")
    write_csv(path, ["chromosome", "length"], lengths.items())


def write_annotation(annotation: GenomeAnnotation, path) -> None:
    """Write the loci as the CSV ``load_annotation`` reads.  Lengths are not
    written here (see ``write_lengths``): read back without a lengths file,
    a strand's length is its largest coordinate."""
    write_csv(path, ["mirna", "chromosome", "strand", "coordinate"],
              ([name, strand.strand_id[:-1], strand.strand_id[-1], coord]
               for strand in annotation.strands for name, coord in strand.loci))


def build_design_matrix(annotation: GenomeAnnotation, mirna_names) -> DesignMatrix:
    """Build the unit-to-locus incidence matrix for the named units.

    Every name must be annotated at least once; loci of units outside
    ``mirna_names`` are dropped (they carry no measured signal).  Column
    order is strand by strand, coordinate ascending, matching
    ``DesignMatrix.strand_slices``.

    Raises:
        DataError: any unit without an annotation (all offenders listed).
    """
    names = tuple(mirna_names)
    restricted = annotation.restrict(names)
    annotated = restricted.annotated_names
    missing = [name for name in names if name not in annotated]
    if missing:
        raise DataError(f"unannotated miRNAs: {missing}")

    row_of = {name: i for i, name in enumerate(names)}
    n_loci = restricted.total_loci
    p = np.zeros((len(names), n_loci), dtype=np.int8)
    col = 0
    for strand in restricted.strands:
        for name, _ in strand.loci:
            p[row_of[name], col] = 1
            col += 1
    return DesignMatrix(p=p, mirna_names=names, annotation=restricted)
