"""Forward-constructed rate-reduction networks and their spectral variants."""

import os as _os

# REDUNET_THREADS caps BLAS parallelism; it must land in the environment
# before numpy first loads, which is why it sits above every import here.
# A value that is not a positive integer is not passed on: the layer step
# (`_freq.thread_count`) and the command line reject it.
_threads = _os.environ.get("REDUNET_THREADS", "")
if _threads.isdecimal() and int(_threads) > 0:
    for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .classify import SubspaceModel, evaluate, fit_subspaces, predict
from .datasets import (LabeledDataset, gaussian_sphere, load_mnist,
                       rotate_augment, shift_augment, signals_1d)
from .errors import (ConfigError, DataError, NumericalError, RedunetError,
                     exit_code_for)
from .lifting import lift_1d, lift_2d, polar_transform, random_filters, sparsify
from .rate import Partition, RateParams
from .spectral import (SpectralReduNet, construct, forward, group_gradient,
                       group_rate_components, layer_kernel)

__all__ = [
    "ConfigError", "DataError", "LabeledDataset",
    "NumericalError", "Partition", "RateParams", "RedunetError", "SpectralReduNet",
    "SubspaceModel", "construct", "evaluate", "exit_code_for", "fit_subspaces",
    "forward", "gaussian_sphere", "group_gradient", "group_rate_components",
    "layer_kernel", "lift_1d", "lift_2d", "load_mnist", "polar_transform", "predict",
    "random_filters", "rotate_augment", "shift_augment", "signals_1d", "sparsify",
]
