"""stagenet: a CPU CNN micro-framework with per-stage classifier heads.

Backbones are chains of stages; every stage can feed its own classifier
head (3x3 conv, global max pool, batchnorm, linear, softplus, score
normalizer) and the per-head score vectors are summed into the model
output.  Every layer is float32; ``Layer.astype`` casts a built tree, as
the finite-difference checks need float64.  Everything is seeded and
deterministic.  The package is a library with no command line: ``train``
holds the training loop, Adam, the plateau scheduler and binary
checkpoints, ``scorenorm`` the two score normalizers, their
vector-Jacobian products and the cross-entropy loss, ``data`` the CIFAR-10
reader, synthetic datasets and augmentation, and ``Model.count_stats``
the parameter and FLOP accounting.  The root exports the model, its
heads, the errors and ``seeded_rng``, the keyed numpy Generator that
every draw comes from; the rest is reached through its module.
"""

from .backbones import BackboneSpec, Model, ModelStats, PRESETS, SetSpec, build, build_preset
from .errors import (BuildError, ConfigError, ContractError, DataError,
                     FormatError, NumericsError, ShapeError, StagenetError)
from .heads import ClassifierHead, aggregate_scores, predict
from .rng import seeded_rng

__version__ = "0.1.0"

__all__ = [
    "BackboneSpec", "Model", "ModelStats", "PRESETS", "SetSpec",
    "build", "build_preset",
    "BuildError", "ConfigError", "ContractError", "DataError", "FormatError",
    "NumericsError", "ShapeError", "StagenetError",
    "ClassifierHead", "aggregate_scores", "predict",
    "seeded_rng",
    "__version__",
]
