import math
from pathlib import Path

import pytest

from rieszlab import cli
from rieszlab.exponents import conjectured_exponent
from rieszlab.figures import BoundRow, BoundTable, figure_tables


def figure_csv(tmp_path: Path, dim: int) -> bytes:
    """The bytes ``rieszlab figures --d DIM --out FILE`` writes."""
    out = tmp_path / f"figures_d{dim}.csv"
    assert cli.main(["figures", "--d", str(dim), "--out", str(out)]) == 0
    return out.read_bytes()


def row_at(table: BoundTable, q: float) -> BoundRow:
    for row in table.rows:
        if math.isinf(q) and math.isinf(row.q):
            return row
        if not math.isinf(row.q) and abs(row.q - q) < 1e-12:
            return row
    raise AssertionError(f"no row at q={q}")


def test_table_shape():
    for dim in (1, 2):
        table = figure_tables(dim)
        assert len(table.rows) == 33
        assert table.rows[0].q == 1.0
        assert math.isinf(table.rows[-1].q)


def test_d1_pinned_rows():
    table = figure_tables(1)
    row = row_at(table, 4.0 / 3.0)
    assert row.lower == pytest.approx(1.0) and row.upper == pytest.approx(1.0)
    row = row_at(table, 2.0)
    assert row.lower == pytest.approx(2.0) and row.upper == pytest.approx(2.0)
    row = row_at(table, 4.0)
    assert row.lower == pytest.approx(8.0 / 3.0)
    assert row.upper == pytest.approx(3.0)
    row = row_at(table, math.inf)
    assert row.lower == pytest.approx(4.0) and row.upper == pytest.approx(4.0)


def test_d2_pinned_rows():
    table = figure_tables(2)
    below = row_at(table, 32.0 / 25.0)  # x = 3/8 < 4/3 threshold
    assert below.upper == -1.0 and below.lower == -1.0
    assert below.upper_source == "exact"
    row = row_at(table, 4.0 / 3.0)
    assert row.upper == pytest.approx(conjectured_exponent(2, 4.0 / 3.0))
    assert row.lower == pytest.approx(0.0)
    row = row_at(table, 2.0)
    assert row.upper == pytest.approx(2.0) and row.lower == pytest.approx(2.0)
    row = row_at(table, math.inf)
    assert row.upper == pytest.approx(3.0)
    assert row.lower == pytest.approx(8.0 / 3.0)


def test_bounds_are_ordered():
    for dim in (1, 2):
        for row in figure_tables(dim).rows:
            assert row.lower <= row.upper + 1e-12


def test_upper_matches_conjecture_inside_domain():
    for dim in (1, 2):
        for row in figure_tables(dim).rows:
            if row.upper_source == "conjectured":
                assert row.upper == pytest.approx(conjectured_exponent(dim, row.q))


def test_row_invariant_enforced():
    with pytest.raises(ValueError):
        BoundRow(q=2.0, upper=1.0, lower=2.0, upper_source="a", lower_source="b")


def test_dim_validation():
    with pytest.raises(ValueError):
        figure_tables(3)


def test_csv_deterministic(tmp_path):
    first = figure_csv(tmp_path, 1).decode()
    second = figure_csv(tmp_path, 1).decode()
    assert first == second
    assert "\r" not in first
    lines = first.split("\n")
    assert lines[0] == "q,upper,lower,upper_source,lower_source"
    assert len(lines) == 35  # header + 33 rows + trailing newline
    assert lines[-2].startswith("inf,4,4,")


@pytest.mark.parametrize("dim", [1, 2])
def test_csv_matches_pinned_bytes(tmp_path, dim):
    pinned = Path(__file__).resolve().parent.parent / "bench" / "pinned" / f"figures_d{dim}.csv"
    assert figure_csv(tmp_path, dim) == pinned.read_bytes()


def test_csv_d2_exact_region(tmp_path):
    text = figure_csv(tmp_path, 2).decode()
    assert "1,-1,-1,exact,exact" in text.split("\n")[1]
