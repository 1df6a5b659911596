"""isokernel: data-dependent isolation-based kernels with an exact sparse
feature map, the online kernel learners built on them, and an evaluation
harness for online and batch protocols."""

from .dataset import (
    Dataset,
    LabeledPoint,
    SparseVector,
    kfold,
    load_libsvm,
    parse_libsvm_line,
    save_libsvm,
    shuffle,
    split_head,
    sq_distance,
)
from .featuremap import Mapper, kernel, naive_dot
from .kernels import Gaussian, Laplacian
from .learner import (
    DualModel,
    FeatureMatchKernel,
    IKOGDModel,
    NOGDModel,
    predict_label,
)
from .nystrom import NystromMap, fit_nystrom, sym_eigen
from .eval import (
    Metrics,
    ProtocolConfig,
    cv_select_psi,
    make_two_gaussians,
    run_batch,
    run_online,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DualModel",
    "FeatureMatchKernel",
    "Gaussian",
    "IKOGDModel",
    "LabeledPoint",
    "Laplacian",
    "Mapper",
    "Metrics",
    "NOGDModel",
    "NystromMap",
    "ProtocolConfig",
    "SparseVector",
    "cv_select_psi",
    "fit_nystrom",
    "kernel",
    "kfold",
    "load_libsvm",
    "make_two_gaussians",
    "naive_dot",
    "parse_libsvm_line",
    "predict_label",
    "run_batch",
    "run_online",
    "save_libsvm",
    "shuffle",
    "split_head",
    "sq_distance",
    "sweep",
    "sym_eigen",
]
