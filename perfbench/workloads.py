"""The benchmark's workloads: experiment kind, config overrides and depth.

Importable without numpy, so the parent runner can list and validate
workload names before any child sets its thread caps. Why each workload
exists is in README.md next to this file.
"""

LAYERS = 3  # network layers per construction, the same on every workload

# criterion 08's digit shape, with stride 14 (4 translations) instead of 7
_DIGITS = {"m_per_class": 200, "m_test_per_class": 50, "channels": 5,
           "kernel_size": 3, "stride": 14}

WORKLOADS = {
    # the CLI default desk config for signals1d, except layers
    "signals1d": {"kind": "signals1d", "overrides": {}, "digits": None},
    "translation2d": {"kind": "mnist-translation",
                      "overrides": dict(_DIGITS, variant="invariant"),
                      "digits": (200, 50)},
    "vector784": {"kind": "mnist-translation",
                  "overrides": dict(_DIGITS, variant="vector"),
                  "digits": (200, 50)},
}


def overrides(name: str, seed: int, data_dir: str | None) -> dict:
    """Raw string overrides for load_config, as the CLI would pass them."""
    spec = WORKLOADS[name]
    values = dict(spec["overrides"], layers=LAYERS, seed=seed, save_model="true")
    if data_dir is not None:
        values["data_dir"] = data_dir
    return {key: str(value) for key, value in values.items()}
