import pytest

from rieszlab.config import RunConfig, make_config, parse_config_file, thread_count
from rieszlab.series import SeriesControl


def test_defaults():
    cfg = RunConfig()
    assert cfg.grid_for(1) == 256
    assert cfg.grid_for(2) == 128
    assert cfg.grid_for(3) == 64
    assert cfg.offset == 0.5
    assert cfg.fmt == "csv"


def test_grid_for_unknown_dim():
    with pytest.raises(ValueError):
        RunConfig().grid_for(4)


def test_validation():
    with pytest.raises(ValueError):
        RunConfig(grid_1d=255)  # odd
    with pytest.raises(ValueError):
        RunConfig(grid_2d=0)
    with pytest.raises(ValueError):
        RunConfig(budget=0)
    with pytest.raises(ValueError):
        RunConfig(fmt="yaml")


def test_series_control_round_trip():
    cfg = RunConfig(max_terms=77, rel_tol=1e-12)
    assert cfg.series_control() == SeriesControl(max_terms=77, rel_tol=1e-12)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "grid_1d = 512\n"
        "seed = 3   # trailing comment\n"
        "\n"
        "fmt = json\n"
    )
    values = parse_config_file(path)
    assert values == {"grid_1d": 512, "seed": 3, "fmt": "json"}


def test_parse_config_file_bad_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid_1d = 512\nbogus = 1\n")
    with pytest.raises(ValueError, match=":2:"):
        parse_config_file(path)


def test_parse_config_file_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match=":1:"):
        parse_config_file(path)


def test_make_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid_1d = 512\nseed = 3\n")
    cfg = make_config(path, seed=9, budget=None)
    assert cfg.grid_1d == 512  # from file
    assert cfg.seed == 9  # flag beats file
    assert cfg.budget == 200  # None override keeps default


def test_thread_count_explicit_wins(monkeypatch):
    monkeypatch.setenv("RIESZ_LAB_THREADS", "2")
    assert thread_count(5) == 5
    assert thread_count(0) == 1  # floored


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("RIESZ_LAB_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.delenv("RIESZ_LAB_THREADS")
    assert thread_count() >= 1
