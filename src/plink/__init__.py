"""Probabilistic LiDAR range fields.

Learns a differential reflection-probability field from raw (possibly
conflicting) range measurements, integrates it into per-ray cumulative
return distributions, and renders novel views stochastically or by rule.
"""

from .field import CdfTrace, Ray, RaySet, SampleGrid
from .losses import LossBreakdown
from .metrics import MetricsReport, PointCloud, evaluate
from .net import FieldModel, GradientTape, encode, init_model, opt_step
from .sampler import histogram_from_coarse, importance_sample, train_step
from .sensor import (Pose, ScanFrame, SensorIntrinsics, UnitCubeScale,
                     motion_compensate, ray_directions, to_unit_cube)
from .simscene import (SceneSpec, SceneSurface, generate_dataset, load_scene,
                       sample_return, trace_true_cdf)

__version__ = "0.1.0"
