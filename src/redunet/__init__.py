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
from .rate import (Partition, RateParams, class_rate, coding_rate, rate_components,
                   rate_reduction)
from .spectral import (SpectralReduNet, construct_shift1d, construct_translation2d,
                       forward_shift1d, forward_translation2d, kernel_extract,
                       kernel_extract_2d, shift_rate_components, shift_rate_reduction,
                       spectral_gradient, spectral_gradient_2d,
                       translation_rate_components, translation_rate_reduction)
from .vector import construct_vector_net, forward_vector, rate_gradient

__all__ = [
    "ConfigError", "DataError", "LabeledDataset",
    "NumericalError", "Partition", "RateParams", "RedunetError", "SpectralReduNet",
    "SubspaceModel", "class_rate",
    "coding_rate", "construct_shift1d", "construct_translation2d",
    "construct_vector_net", "evaluate", "exit_code_for", "fit_subspaces",
    "forward_shift1d", "forward_translation2d", "forward_vector",
    "gaussian_sphere", "kernel_extract", "kernel_extract_2d", "lift_1d",
    "lift_2d", "load_mnist", "polar_transform", "predict", "random_filters",
    "rate_components", "rate_gradient", "rate_reduction", "rotate_augment",
    "shift_augment", "shift_rate_components", "shift_rate_reduction",
    "signals_1d", "sparsify", "spectral_gradient", "spectral_gradient_2d",
    "translation_rate_components", "translation_rate_reduction",
]
