import os
import subprocess
import sys

import pytest

from redunet._freq import thread_count
from redunet.errors import ConfigError
from redunet.harness.config import load_config


def write(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


def test_defaults_per_kind():
    g = load_config("gauss2d")
    assert (g.layers, g.eta, g.eps) == (2000, 0.5, 0.1)
    assert (g.m_per_class, g.sigma) == (500, 0.1)
    assert g.lam is None and g.energy == 0.95 and not g.save_model
    s = load_config("signals1d")
    assert (s.layers, s.eta, s.n, s.channels, s.kernel_size) == (2000, 0.1, 150, 7, 3)
    t = load_config("mnist-translation")
    assert (t.variant, t.stride, t.channels) == ("invariant", 7, 5)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        load_config("gauss4d")


def test_file_section_applies(tmp_path):
    path = write(tmp_path, "[gauss2d]\nlayers = 50\nsigma = 0.2\n")
    cfg = load_config("gauss2d", path)
    assert cfg.layers == 50 and cfg.sigma == 0.2
    assert cfg.eta == 0.5  # untouched default


def test_other_sections_ignored_but_validated(tmp_path):
    path = write(tmp_path, "[gauss2d]\nlayers = 9\n[signals1d]\nnoise = 0.3\n")
    cfg = load_config("gauss2d", path)
    assert cfg.layers == 9
    bad = write(tmp_path, "[gauss2d]\nlayers = 9\n[signals1d]\nwavelength = 3\n")
    with pytest.raises(ConfigError):
        load_config("gauss2d", bad)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[gauss2d]\nlayrs = 50\n")
    with pytest.raises(ConfigError):
        load_config("gauss2d", path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[gauss9d]\nlayers = 50\n")
    with pytest.raises(ConfigError):
        load_config("gauss2d", path)


def test_key_not_valid_for_kind_rejected(tmp_path):
    path = write(tmp_path, "[gauss2d]\nchannels = 5\n")
    with pytest.raises(ConfigError):
        load_config("gauss2d", path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config("gauss2d", tmp_path / "absent.ini")


def test_overrides_win_over_file(tmp_path):
    path = write(tmp_path, "[gauss2d]\nlayers = 50\nseed = 3\n")
    cfg = load_config("gauss2d", path, {"layers": "7"})
    assert cfg.layers == 7 and cfg.seed == 3


def test_override_values_validated():
    with pytest.raises(ConfigError):
        load_config("gauss2d", None, {"layers": "-1"})
    with pytest.raises(ConfigError):
        load_config("gauss2d", None, {"eta": "fast"})
    with pytest.raises(ConfigError):
        load_config("gauss2d", None, {"channels": "5"})  # not a gauss key


def test_lambda_key_maps_to_lam():
    cfg = load_config("gauss2d", None, {"lambda": "12.5"})
    assert cfg.lam == 12.5


def test_energy_range_enforced():
    assert load_config("gauss2d", None, {"energy": "1.0"}).energy == 1.0
    with pytest.raises(ConfigError):
        load_config("gauss2d", None, {"energy": "0"})
    with pytest.raises(ConfigError):
        load_config("gauss2d", None, {"energy": "1.01"})


def test_boolean_parsing(tmp_path):
    path = write(tmp_path, "[gauss2d]\nsave_model = yes\n")
    assert load_config("gauss2d", path).save_model is True
    bad = write(tmp_path, "[gauss2d]\nsave_model = maybe\n")
    with pytest.raises(ConfigError):
        load_config("gauss2d", bad)


def test_radii_parsing(tmp_path):
    path = write(tmp_path, "[mnist-rotation]\nradii = 2.7, 5.4, 8.1\nchannels = 3\n")
    cfg = load_config("mnist-rotation", path)
    assert cfg.radii == (2.7, 5.4, 8.1)
    bad = write(tmp_path, "[mnist-rotation]\nradii = 2.7, -1\nchannels = 2\n")
    with pytest.raises(ConfigError):
        load_config("mnist-rotation", bad)


def test_radii_count_must_match_channels(tmp_path):
    path = write(tmp_path, "[mnist-rotation]\nradii = 2.7, 5.4\n")
    with pytest.raises(ConfigError):
        load_config("mnist-rotation", path)  # default channels is 5


def test_stride_must_divide_gamma():
    cfg = load_config("mnist-rotation", None, {"stride": "4"})  # gamma 200
    assert cfg.stride == 4
    with pytest.raises(ConfigError):
        load_config("mnist-rotation", None, {"stride": "3"})


def test_signals_stride_must_divide_or_cover_the_length():
    assert load_config("signals1d", None, {"stride": "50"}).stride == 50  # n 150
    assert load_config("signals1d", None, {"n": "12", "stride": "15"}).stride == 15
    assert load_config("signals1d", None, {"n": "12", "stride": "12"}).stride == 12
    for n, stride in (("150", "7"), ("12", "5"), ("12", "11")):
        with pytest.raises(ConfigError, match="stride"):
            load_config("signals1d", None, {"n": n, "stride": stride})


def test_kernel_size_bounded_by_signal_length(tmp_path):
    path = write(tmp_path, "[signals1d]\nn = 8\nkernel_size = 9\n")
    with pytest.raises(ConfigError):
        load_config("signals1d", path)


def test_variant_choices(tmp_path):
    path = write(tmp_path, "[mnist-rotation]\nvariant = vector\n")
    assert load_config("mnist-rotation", path).variant == "vector"
    bad = write(tmp_path, "[mnist-rotation]\nvariant = fancy\n")
    with pytest.raises(ConfigError):
        load_config("mnist-rotation", bad)


def test_malformed_ini_rejected(tmp_path):
    path = write(tmp_path, "layers = 5\n")  # key before any section
    with pytest.raises(ConfigError):
        load_config("gauss2d", path)


def _cpus():
    return len(os.sched_getaffinity(0))


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "1.5", " "])
def test_thread_count_rejects_a_value_that_is_no_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("REDUNET_THREADS", raw)
    with pytest.raises(ConfigError):
        thread_count()


def test_thread_count_defaults_to_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("REDUNET_THREADS", raising=False)
    assert thread_count() == _cpus()


def test_thread_count_is_capped_at_the_usable_cpus(monkeypatch):
    # only the count is computed here; no thread is started
    monkeypatch.setenv("REDUNET_THREADS", "1")
    assert thread_count() == 1
    monkeypatch.setenv("REDUNET_THREADS", str(10**9))
    assert thread_count() == _cpus()


@pytest.mark.parametrize("raw, passed_on", [("abc", "None"), ("0", "None"), ("2", "2")])
def test_only_a_positive_thread_count_reaches_blas(raw, passed_on):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {key: value for key, value in os.environ.items()
           if not key.endswith("_NUM_THREADS")}
    env.update(REDUNET_THREADS=raw, PYTHONPATH=src)
    code = "import os, redunet; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == passed_on
