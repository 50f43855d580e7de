"""Rotation- and translation-invariant point cloud features and rigid
registration via multi-hop channel-wise Saab transforms."""

from .cloud import (
    CloudParseError,
    PointCloud,
    RigidTransform,
    align_inverse,
    apply_transform,
    load_cloud,
    load_transform,
    normalize_unit_sphere,
    save_cloud,
    save_transform,
)
from .config import HopConfig, ModelConfig, parse_config
from .modelfile import ModelFormatError, load_model, save_model
from .pipeline import (
    CloudTooSmallError,
    FeatureSet,
    RPointHopModel,
    TrainingError,
    extract_features,
    train,
)
from .registration import (
    CorrespondenceSet,
    EstimationError,
    MatchingError,
    MatchParams,
    RansacParams,
    estimate_transform,
    euler_xyz_to_matrix,
    icp_refine,
    match,
    matrix_to_euler_xyz,
    ransac_estimate,
    register,
    rotation_error,
    translation_error,
)

__version__ = "0.1.0"

__all__ = [
    "CloudParseError",
    "CloudTooSmallError",
    "CorrespondenceSet",
    "EstimationError",
    "FeatureSet",
    "HopConfig",
    "MatchParams",
    "MatchingError",
    "ModelConfig",
    "ModelFormatError",
    "PointCloud",
    "RPointHopModel",
    "RansacParams",
    "RigidTransform",
    "TrainingError",
    "align_inverse",
    "apply_transform",
    "estimate_transform",
    "euler_xyz_to_matrix",
    "extract_features",
    "icp_refine",
    "matrix_to_euler_xyz",
    "load_cloud",
    "load_model",
    "load_transform",
    "match",
    "normalize_unit_sphere",
    "parse_config",
    "ransac_estimate",
    "register",
    "rotation_error",
    "save_cloud",
    "save_model",
    "save_transform",
    "train",
    "translation_error",
]
