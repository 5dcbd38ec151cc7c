import pytest

from rieszlab.config import RunConfig, fields_read, make_config, parse_config_file, thread_count
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


def _search_like(dim, config=None):
    cfg = config or RunConfig()
    return cfg.seed, cfg.grid_for(dim)


def _handler_passing_on(args, cfg):
    print(cfg)  # not a function with source: not followed
    return _search_like(args.d, cfg), cfg.budget, args.threads


def _handler_by_keyword(args, cfg):
    return _search_like(args.d, config=cfg), cfg.series_control()


def test_fields_read_follows_aliases_methods_and_callees():
    grids = {"grid_1d", "grid_2d", "grid_3d"}
    assert fields_read(_handler_passing_on) == grids | {"seed", "budget"}
    assert fields_read(_handler_by_keyword) == grids | {"seed", "max_terms", "rel_tol"}
    assert fields_read(_search_like, "config") == grids | {"seed"}


def test_make_config_refuses_a_key_the_handler_never_reads(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\n")
    assert make_config(path, "demo", _handler_by_keyword).seed == 3
    path.write_text("seed = 3\nthreads = 2\n")
    with pytest.raises(ValueError, match="demo does not read config key 'threads'"):
        make_config(path, "demo", _handler_by_keyword)
    assert make_config(path).threads == 2  # no handler: every field is a key


def test_thread_count_explicit_wins(monkeypatch):
    monkeypatch.setenv("RIESZ_LAB_THREADS", "2")
    assert thread_count(5) == 5
    assert thread_count(0) == 1  # floored


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("RIESZ_LAB_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.delenv("RIESZ_LAB_THREADS")
    assert thread_count() >= 1
