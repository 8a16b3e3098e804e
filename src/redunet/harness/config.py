"""Experiment configuration: per-kind defaults, INI files, CLI overrides.

The config file is plain ``key = value`` lines grouped in sections named
after experiment kinds. Every section and key is validated (unknown ones
are rejected), values from the section matching the requested kind apply
on top of that kind's defaults, and CLI flag values apply last.
"""

import configparser
import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..rate import RateParams

KINDS = ("gauss2d", "gauss3d", "signals1d", "mnist-rotation",
         "mnist-translation", "custom-vector")
VARIANTS = ("invariant", "vector")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's resolved settings; unused fields stay None."""

    kind: str
    layers: int
    eta: float
    eps: float
    lam: float | None
    seed: int
    energy: float
    save_model: bool
    m_per_class: int | None = None
    m_test_per_class: int | None = None
    sigma: float | None = None
    n: int | None = None
    noise: float | None = None
    channels: int | None = None
    kernel_size: int | None = None
    gamma: int | None = None
    radii: tuple | None = None
    stride: int | None = None
    variant: str | None = None
    data_dir: str | None = None
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    data: str | None = None


def _int(raw, key, minimum=None):
    try:
        value = int(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
    return value


def _float(raw, key, positive=False, nonneg=False):
    try:
        value = float(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value}")
    if positive and not value > 0:
        raise ConfigError(f"{key}: must be positive, got {value}")
    if nonneg and value < 0:
        raise ConfigError(f"{key}: must be >= 0, got {value}")
    return value


def _energy(raw, key):
    value = _float(raw, key, positive=True)
    if value > 1:
        raise ConfigError(f"{key}: must lie in (0, 1], got {value}")
    return value


def _eps(raw, key):
    try:
        return RateParams(_float(raw, key, positive=True)).eps
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _bool(raw, key):
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _variant(raw, key):
    text = str(raw).strip()
    if text not in VARIANTS:
        raise ConfigError(f"{key}: expected one of {VARIANTS}, got {raw!r}")
    return text


def _radii(raw, key):
    if isinstance(raw, tuple):
        return raw
    try:
        values = tuple(float(v) for v in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated radii, got {raw!r}") from None
    if not values or not all(0 < r < math.inf for r in values):
        raise ConfigError(f"{key}: radii must be positive and finite, got {raw!r}")
    return values


def _path(raw, key):
    return str(raw).strip()


# caster tables: key -> callable(raw, key); shared keys first
_CASTERS = {
    "layers": lambda v, k: _int(v, k, minimum=0),
    "eta": lambda v, k: _float(v, k, positive=True),
    "eps": _eps,
    "lambda": lambda v, k: _float(v, k, positive=True),
    "seed": lambda v, k: _int(v, k, minimum=0),
    "energy": _energy,
    "save_model": _bool,
    "m_per_class": lambda v, k: _int(v, k, minimum=1),
    "m_test_per_class": lambda v, k: _int(v, k, minimum=1),
    "sigma": lambda v, k: _float(v, k, nonneg=True),
    "n": lambda v, k: _int(v, k, minimum=2),
    "noise": lambda v, k: _float(v, k, nonneg=True),
    "channels": lambda v, k: _int(v, k, minimum=1),
    "kernel_size": lambda v, k: _int(v, k, minimum=1),
    "gamma": lambda v, k: _int(v, k, minimum=2),
    "radii": _radii,
    "stride": lambda v, k: _int(v, k, minimum=1),
    "variant": _variant,
    "data_dir": _path,
    "train_images": _path,
    "train_labels": _path,
    "test_images": _path,
    "test_labels": _path,
    "data": _path,
}

_COMMON = ("layers", "eta", "eps", "lambda", "seed", "energy", "save_model")
_MNIST_PATHS = ("data_dir", "train_images", "train_labels", "test_images", "test_labels")

# allowed keys and defaults per kind; defaults follow the reference
# experiment settings for that data regime
_GAUSS = {
    "keys": _COMMON + ("m_per_class", "m_test_per_class", "sigma"),
    "defaults": {"layers": 2000, "eta": 0.5, "eps": 0.1, "m_per_class": 500,
                 "m_test_per_class": 500, "sigma": 0.1},
}
_SCHEMAS = {
    "gauss2d": _GAUSS,
    "gauss3d": _GAUSS,
    "signals1d": {
        "keys": _COMMON + ("m_per_class", "m_test_per_class", "n", "noise",
                           "channels", "kernel_size", "stride"),
        "defaults": {"layers": 2000, "eta": 0.1, "eps": 0.1, "m_per_class": 200,
                     "m_test_per_class": 200, "n": 150, "noise": 0.1,
                     "channels": 7, "kernel_size": 3, "stride": 15},
    },
    "mnist-rotation": {
        "keys": _COMMON + ("variant", "m_per_class", "m_test_per_class", "gamma",
                           "channels", "radii", "stride") + _MNIST_PATHS,
        "defaults": {"layers": 3500, "eta": 0.5, "eps": 0.1, "variant": "invariant",
                     "m_per_class": 1000, "m_test_per_class": 500, "gamma": 200,
                     "channels": 5, "stride": 1},
    },
    "mnist-translation": {
        "keys": _COMMON + ("variant", "m_per_class", "m_test_per_class", "channels",
                           "kernel_size", "stride") + _MNIST_PATHS,
        "defaults": {"layers": 2000, "eta": 0.5, "eps": 0.1, "variant": "invariant",
                     "m_per_class": 500, "m_test_per_class": 250, "channels": 5,
                     "kernel_size": 3, "stride": 7},
    },
    "custom-vector": {
        "keys": _COMMON + ("data",),
        "defaults": {"layers": 500, "eta": 0.5, "eps": 0.1},
    },
}

_GLOBAL_DEFAULTS = {"lambda": None, "seed": 0, "energy": 0.95, "save_model": False}


def _validate_section(section, items):
    if section not in _SCHEMAS:
        raise ConfigError(f"unknown experiment kind [{section}] in config file")
    allowed = _SCHEMAS[section]["keys"]
    out = {}
    for key, raw in items:
        if key not in allowed:
            raise ConfigError(f"[{section}] has no key {key!r}")
        out[key] = _CASTERS[key](raw, key)
    return out


def _cross_validate(kind, values):
    if kind == "mnist-rotation":
        if values["gamma"] % values["stride"] != 0:
            raise ConfigError(
                f"stride {values['stride']} must divide gamma {values['gamma']}")
        radii = values.get("radii")
        if radii is not None and len(radii) != values["channels"]:
            raise ConfigError(
                f"{len(radii)} radii given for {values['channels']} channels")
    if kind == "signals1d":
        if values["kernel_size"] > values["n"]:
            raise ConfigError(
                f"kernel_size {values['kernel_size']} exceeds signal length {values['n']}")
        # the shifts by multiples of stride must form a subgroup of the rolls
        if values["stride"] < values["n"] and values["n"] % values["stride"]:
            raise ConfigError(f"stride {values['stride']} must divide the signal length "
                              f"{values['n']} or be at least that long")
    if kind == "mnist-translation" and values["kernel_size"] > 28:
        raise ConfigError(
            f"kernel_size {values['kernel_size']} exceeds the 28x28 image size")


def load_config(kind, path=None, overrides=None) -> ExperimentConfig:
    """Resolve one experiment's settings.

    ``overrides`` maps config keys to raw (string) values from CLI flags;
    they are run through the same casters as file values. Every section
    of the file is validated, but only the requested kind's applies.
    """
    if kind not in _SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {KINDS}")
    schema = _SCHEMAS[kind]
    values = dict(_GLOBAL_DEFAULTS)
    values.update(schema["defaults"])
    values = {key: values[key] for key in schema["keys"] if key in values}
    for key in schema["keys"]:
        values.setdefault(key, None)

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)  # a % is a plain character
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in parser.sections():
            parsed = _validate_section(section, parser[section].items())
            if section == kind:
                values.update(parsed)

    for key, raw in (overrides or {}).items():
        if raw is None:
            continue
        if key not in schema["keys"]:
            raise ConfigError(f"option {key!r} does not apply to {kind}")
        values[key] = _CASTERS[key](raw, key)

    _cross_validate(kind, values)
    values["lam"] = values.pop("lambda")
    return ExperimentConfig(kind=kind, **values)
