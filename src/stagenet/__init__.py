"""stagenet: a CPU CNN micro-framework with per-stage classifier heads.

Backbones are chains of stages; every stage can feed its own classifier
head (3x3 conv, global max pool, batchnorm, linear, softplus, score
normalizer) and the per-head score vectors are summed into the model
output.  Everything is seeded and deterministic, and every backward pass
is checkable against finite differences (``gradcheck``).  The package is
a library with no command line: ``train`` holds the training loop, Adam,
the plateau scheduler and binary checkpoints, ``data`` the CIFAR reader,
synthetic datasets and augmentation, and ``Model.count_stats`` the
parameter and FLOP accounting.
"""

from .backbones import (BackboneSpec, BlockSpec, Model, ModelStats, PRESETS,
                        SetSpec, build, build_preset)
from .errors import (BuildError, ConfigError, ContractError, DataError,
                     DomainError, FormatError, NumericsError, ShapeError,
                     StagenetError)
from .heads import ClassifierHead, aggregate_scores, predict
from .rng import SeededRng
from .scorenorm import (convergence_condition, jacobian_l2_score, jacobian_softmax,
                        l2_score, l2score_partial, lower_bound_ok, softmax,
                        softmax_partial)

__version__ = "0.1.0"

__all__ = [
    "BackboneSpec", "BlockSpec", "Model", "ModelStats", "PRESETS", "SetSpec",
    "build", "build_preset",
    "BuildError", "ConfigError", "ContractError", "DataError", "DomainError",
    "FormatError", "NumericsError", "ShapeError", "StagenetError",
    "ClassifierHead", "aggregate_scores", "predict",
    "convergence_condition", "jacobian_l2_score", "jacobian_softmax",
    "l2_score", "l2score_partial", "lower_bound_ok", "softmax", "softmax_partial",
    "SeededRng",
    "__version__",
]
