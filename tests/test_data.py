import csv

import numpy as np
import pytest

from strandgp import (
    DataError,
    GenomeAnnotation,
    StrandRecord,
    build_design_matrix,
    load_annotation,
    load_expression,
    write_expression,
)
from strandgp.data import write_annotation, write_lengths
from strandgp.simulate import simulate_dataset, write_simulated


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def expression_files(tmp_path, case_rows, control_rows, prefix=""):
    case = write_csv(tmp_path / f"{prefix}case.csv", case_rows)
    control = write_csv(tmp_path / f"{prefix}control.csv", control_rows)
    return case, control


class TestLoadExpression:
    def test_identity_single_cell(self, tmp_path):
        case, control = expression_files(
            tmp_path,
            [["patient", "mir-a"], ["p1", "5.0"]],
            [["patient", "mir-a"], ["p1", "5.0"]],
        )
        ds = load_expression(case, control)
        assert ds.z.tolist() == [[0.0]]

    def test_elementwise_subtraction(self, tmp_path):
        case, control = expression_files(
            tmp_path,
            [["patient", "a", "b"], ["p1", "1", "2"], ["p2", "3", "4"]],
            [["patient", "a", "b"], ["p1", "0", "1"], ["p2", "1", "1"]],
        )
        ds = load_expression(case, control)
        assert ds.z.tolist() == [[1.0, 1.0], [2.0, 3.0]]

    def test_study_scale_layout(self, tmp_path):
        rng = np.random.default_rng(7)
        names = [f"mir-{i}" for i in range(522)]
        case_rows = [["patient", *names]]
        ctrl_rows = [["patient", *names]]
        for j in range(18):
            case_rows.append([f"p{j}", *(repr(float(v)) for v in rng.normal(size=522))])
            ctrl_rows.append([f"p{j}", *(repr(float(v)) for v in rng.normal(size=522))])
        ds = load_expression(*expression_files(tmp_path, case_rows, ctrl_rows))
        assert ds.n_patients == 18
        assert ds.n_mirnas == 522

    def test_alignment_by_patient_and_name(self, tmp_path):
        case, control = expression_files(
            tmp_path,
            [["patient", "a", "b"], ["p1", "1", "2"], ["p2", "3", "4"]],
            [["patient", "b", "a"], ["p2", "1", "1"], ["p1", "1", "0"]],
        )
        ds = load_expression(case, control)
        assert ds.z.tolist() == [[1.0, 1.0], [2.0, 3.0]]

    def test_column_permutation_invariance(self, tmp_path):
        rng = np.random.default_rng(1)
        names = [f"m{i}" for i in range(6)]
        case_vals = rng.normal(size=(3, 6))
        ctrl_vals = rng.normal(size=(3, 6))
        pids = ["p0", "p1", "p2"]

        def rows(names_order, vals, base_names):
            idx = [base_names.index(n) for n in names_order]
            out = [["patient", *names_order]]
            for pid, row in zip(pids, vals):
                out.append([pid, *(repr(float(row[i])) for i in idx)])
            return out

        ds1 = load_expression(*expression_files(
            tmp_path, rows(names, case_vals, names), rows(names, ctrl_vals, names), "a_"))
        perm = [names[i] for i in rng.permutation(6)]
        ds2 = load_expression(*expression_files(
            tmp_path, rows(perm, case_vals, names), rows(perm, ctrl_vals, names), "b_"))
        back = [ds2.mirna_names.index(n) for n in ds1.mirna_names]
        np.testing.assert_array_equal(ds1.z, ds2.z[:, back])

    def test_duplicate_mirna_rejected(self, tmp_path):
        case, control = expression_files(
            tmp_path,
            [["patient", "a", "a"], ["p1", "1", "2"]],
            [["patient", "a", "a"], ["p1", "1", "2"]],
        )
        with pytest.raises(DataError, match="duplicate miRNA"):
            load_expression(case, control)

    @pytest.mark.parametrize("empty", ["case", "control"])
    def test_header_without_patient_rows(self, tmp_path, empty):
        full = [["patient", "a", "b"], ["p1", "1", "2"]]
        case, control = expression_files(tmp_path, full[:1] if empty == "case" else full,
                                         full[:1] if empty == "control" else full)
        with pytest.raises(DataError, match=f"{empty}.csv: no patient rows"):
            load_expression(case, control)

    def test_patient_sets_differ(self, tmp_path):
        case, control = expression_files(
            tmp_path,
            [["patient", "a"], ["p1", "1"]],
            [["patient", "a"], ["p2", "1"]],
        )
        with pytest.raises(DataError, match="patient sets differ"):
            load_expression(case, control)

    def test_missing_cell_is_fatal(self, tmp_path):
        case, control = expression_files(
            tmp_path,
            [["patient", "a", "b"], ["p1", "1", ""], ["p2", "2", "3"]],
            [["patient", "a", "b"], ["p1", "1", "1"], ["p2", "1", "1"]],
        )
        with pytest.raises(DataError, match="missing"):
            load_expression(case, control)

    def test_drop_incomplete_patients(self, tmp_path):
        case, control = expression_files(
            tmp_path,
            [["patient", "a", "b"], ["p1", "1", ""], ["p2", "2", "3"]],
            [["patient", "a", "b"], ["p1", "1", "1"], ["p2", "1", "1"]],
        )
        ds = load_expression(case, control, drop_incomplete_patients=True)
        assert ds.patient_ids == ("p2",)
        assert ds.z.tolist() == [[1.0, 2.0]]

    def test_non_numeric_cell(self, tmp_path):
        case, control = expression_files(
            tmp_path,
            [["patient", "a"], ["p1", "oops"]],
            [["patient", "a"], ["p1", "1"]],
        )
        with pytest.raises(DataError, match="non-numeric"):
            load_expression(case, control)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        names = [f"m{i}" for i in range(4)]
        rows_case = [["patient", *names]] + [
            [f"p{j}", *(repr(float(v)) for v in rng.normal(size=4) * 1e-7)] for j in range(3)
        ]
        rows_ctrl = [["patient", *names]] + [
            [f"p{j}", *(repr(float(v)) for v in rng.normal(size=4) * 1e3)] for j in range(3)
        ]
        ds = load_expression(*expression_files(tmp_path, rows_case, rows_ctrl))
        write_expression(ds, tmp_path / "case2.csv", tmp_path / "ctrl2.csv")
        ds2 = load_expression(tmp_path / "case2.csv", tmp_path / "ctrl2.csv")
        np.testing.assert_array_equal(ds.case, ds2.case)
        np.testing.assert_array_equal(ds.control, ds2.control)
        np.testing.assert_array_equal(ds.z, ds2.z)


class TestLoadAnnotation:
    def test_two_strand_example(self, tmp_path):
        rows = [["mirna", "chromosome", "strand", "coordinate"]]
        for i, name in enumerate(["mir-135b-5p", "mir-181a-5p", "mir-199a-3p", "mir-194-5p"]):
            rows.append([name, "Chr1", "-", str(100 + i * 50)])
        for i, name in enumerate(["let-7f-1-3p", "mir-181a-5p", "mir-126-5p", "let-7f-5p"]):
            rows.append([name, "Chr9", "+", str(200 + i * 30)])
        ann = load_annotation(write_csv(tmp_path / "ann.csv", rows))
        assert ann.n_strands == 2
        assert sorted(len(s.loci) for s in ann.strands) == [4, 4]
        assert "mir-181a-5p" in ann.strands[0].mirnas
        assert "mir-181a-5p" in ann.strands[1].mirnas

    def test_single_locus_degenerate_strand(self, tmp_path):
        ann = load_annotation(write_csv(tmp_path / "ann.csv", [
            ["mirna", "chromosome", "strand", "coordinate"],
            ["mir-a", "Chr2", "+", "123.0"],
        ]))
        assert ann.n_strands == 1
        strand = ann.strands[0]
        assert strand.length == 123.0
        assert strand.coordinates.tolist() == [123.0]

    def test_study_scale_strand_count(self, tmp_path):
        rows = [["mirna", "chromosome", "strand", "coordinate"]]
        chroms = [f"Chr{i}" for i in range(1, 23)] + ["ChrX"]
        idx = 0
        for chrom in chroms:
            for sign in "+-":
                rows.append([f"mir-{idx}", chrom, sign, "1000"])
                idx += 1
        ann = load_annotation(write_csv(tmp_path / "ann.csv", rows))
        assert ann.n_strands == 46

    def test_unicode_minus_accepted(self, tmp_path):
        ann = load_annotation(write_csv(tmp_path / "ann.csv", [
            ["mirna", "chromosome", "strand", "coordinate"],
            ["mir-a", "Chr1", "−", "10"],
        ]))
        assert ann.strands[0].strand_id == "Chr1-"

    def test_unknown_strand_symbol(self, tmp_path):
        with pytest.raises(DataError, match="strand symbol"):
            load_annotation(write_csv(tmp_path / "ann.csv", [
                ["mirna", "chromosome", "strand", "coordinate"],
                ["mir-a", "Chr1", "?", "10"],
            ]))

    def test_nonpositive_coordinate(self, tmp_path):
        with pytest.raises(DataError, match="non-positive"):
            load_annotation(write_csv(tmp_path / "ann.csv", [
                ["mirna", "chromosome", "strand", "coordinate"],
                ["mir-a", "Chr1", "+", "0"],
            ]))

    def test_duplicate_locus_rejected(self, tmp_path):
        with pytest.raises(DataError, match="duplicate locus"):
            load_annotation(write_csv(tmp_path / "ann.csv", [
                ["mirna", "chromosome", "strand", "coordinate"],
                ["mir-a", "Chr1", "+", "10"],
                ["mir-b", "Chr1", "+", "10"],
            ]))

    def test_round_trip(self, tmp_path):
        # Both strand signs, a chromosome name that sorts before a shorter
        # one, and a unit with loci on two strands; each length is the
        # strand's largest coordinate, which is what reading back assigns.
        annotation = GenomeAnnotation(strands=(
            StrandRecord("Chr1-", 0.1 + 0.2, (("a", 1e-3), ("b", 0.1 + 0.2))),
            StrandRecord("Chr10+", 1234.5, (("c", 7.0), ("b", 1234.5))),
            StrandRecord("Chr2+", 5e8, (("d", 5e8),)),
        ))
        write_annotation(annotation, tmp_path / "ann.csv")
        assert load_annotation(tmp_path / "ann.csv") == annotation

    def test_lengths_table(self, tmp_path):
        ann_path = write_csv(tmp_path / "ann.csv", [
            ["mirna", "chromosome", "strand", "coordinate"],
            ["mir-a", "Chr1", "+", "10"],
        ])
        len_path = write_csv(tmp_path / "len.csv", [
            ["chromosome", "length"], ["Chr1", "500"],
        ])
        ann = load_annotation(ann_path, lengths_path=len_path)
        assert ann.strands[0].length == 500.0

    @pytest.mark.parametrize("lengths, message", [
        # Unchecked, Chr2 would take its largest coordinate as its length,
        # which sets the rho prior's mode.
        ([["Chr1", "500"]], r"len\.csv: no length for chromosome 'Chr2'"),
        # Equal to the largest coordinate passes; below it does not.
        ([["Chr1", "10"], ["Chr2", "50"]],
         r"len\.csv: length 50 of chromosome 'Chr2' is below its locus at coordinate 9500"),
    ])
    def test_lengths_must_cover_each_annotated_chromosome(self, tmp_path, lengths, message):
        ann_path = write_csv(tmp_path / "ann.csv", [
            ["mirna", "chromosome", "strand", "coordinate"],
            ["mir-a", "Chr1", "+", "10"],
            ["mir-b", "Chr2", "-", "9500"],
        ])
        len_path = write_csv(tmp_path / "len.csv", [["chromosome", "length"], *lengths])
        with pytest.raises(DataError, match=message):
            load_annotation(ann_path, lengths_path=len_path)

    def test_simulated_files_carry_the_generator_lengths(self, tmp_path):
        # Without the lengths file each strand would read back its largest
        # coordinate (7032-9963 here), not the 1e4 the generator used.
        sim = simulate_dataset(m=40, n=4, k=5, seed=4242, psi_mode="planted", planted=2)
        paths = write_simulated(sim, tmp_path)
        assert load_annotation(paths["annotation"], paths["lengths"]) == sim.annotation
        assert {strand.length for strand in sim.annotation.strands} == {1e4}
        assert all(strand.length < 1e4 for strand in load_annotation(paths["annotation"]).strands)

    def test_lengths_of_a_chromosome_must_agree(self, tmp_path):
        annotation = GenomeAnnotation(strands=(
            StrandRecord("Chr1+", 100.0, (("a", 10.0),)),
            StrandRecord("Chr1-", 200.0, (("b", 20.0),)),
        ))
        with pytest.raises(ValueError, match="Chr1"):
            write_lengths(annotation, tmp_path / "len.csv")


class TestDesignMatrix:
    def annotation(self, tmp_path, rows):
        return load_annotation(write_csv(tmp_path / "ann.csv",
                                         [["mirna", "chromosome", "strand", "coordinate"], *rows]))

    def test_single_unit_single_locus(self, tmp_path):
        ann = self.annotation(tmp_path, [["mir-a", "Chr1", "+", "10"]])
        design = build_design_matrix(ann, ["mir-a"])
        assert design.p.tolist() == [[1]]

    def test_direct_incidence(self, tmp_path):
        ann = self.annotation(tmp_path, [
            ["mir-A", "Chr1", "+", "10"],
            ["mir-A", "Chr1", "+", "50"],
            ["mir-B", "Chr1", "+", "90"],
        ])
        design = build_design_matrix(ann, ["mir-A", "mir-B"])
        assert design.p.tolist() == [[1, 1, 0], [0, 0, 1]]

    def test_multi_strand_unit_row(self, tmp_path):
        ann = self.annotation(tmp_path, [
            ["mir-181a-5p", "Chr1", "-", "100"],
            ["mir-x", "Chr1", "-", "200"],
            ["mir-181a-5p", "Chr9", "+", "300"],
            ["mir-y", "Chr9", "+", "400"],
        ])
        design = build_design_matrix(ann, ["mir-181a-5p", "mir-x", "mir-y"])
        row = design.p[0]
        assert row.sum() == 2
        s1, s9 = design.strand_slices
        assert row[s1].sum() == 1 and row[s9].sum() == 1

    def test_row_multiplicity_and_column_sums(self, tmp_path):
        ann = self.annotation(tmp_path, [
            ["a", "Chr1", "+", "10"], ["a", "Chr2", "+", "20"],
            ["b", "Chr1", "+", "30"], ["c", "Chr2", "+", "40"],
        ])
        design = build_design_matrix(ann, ["a", "b", "c"])
        np.testing.assert_array_equal(design.p.sum(axis=1), [2, 1, 1])
        np.testing.assert_array_equal(design.p.sum(axis=0), np.ones(4))

    def test_unannotated_unit_listed(self, tmp_path):
        ann = self.annotation(tmp_path, [["a", "Chr1", "+", "10"]])
        with pytest.raises(DataError, match=r"\['b', 'c'\]"):
            build_design_matrix(ann, ["a", "b", "c"])

    def test_unused_loci_dropped(self, tmp_path):
        ann = self.annotation(tmp_path, [
            ["a", "Chr1", "+", "10"], ["unused", "Chr1", "+", "20"],
        ])
        design = build_design_matrix(ann, ["a"])
        assert design.n_loci == 1
