"""Sparse voxel convolutions, redundancy-aware frame sampling, reflectivity
features, and a semi-supervised toy training loop for LiDAR point clouds."""

from .autodiff import Tensor, log_softmax, softmax
from .errors import (DegenerateEmbeddingError, DivergenceError, DomainError, FormatError,
                     Lim3dError, LifecycleError, ShapeError, ValidationError)
from .losses import LossConfig, kl_consistency, lovasz_softmax, total_loss
from .network import LayerSpec, MiniSegNet, layer_kernels, mini_backbone_topology, topology_cost
from .pointcloud import (PointCloud, load_frame, load_labels, read_pgm, save_frame,
                         save_labels, write_pgm)
from .pseudolabel import (ContrastiveConfig, MemoryBank, PseudoLabelSet,
                          VoxelPredictions, bank_push_negatives,
                          build_anchor_set, crb_select, entropy_partition,
                          infonce_loss, positive_center, shannon_entropy)
from .reflectivity import (ReflecConfig, augment, coarse_histograms,
                           normalize_reflectivity, reflectivity)
from .sampling import (SamplingPlan, calibrate_beta, frame_redundancies,
                       passive_baselines, plan, supervisor)
from .scene import SceneSpec, project_range_image, ranges_to_grayscale, synth_sequence
from .sparseconv import (ConvSpec, CostReport, Rulebook, apply_pointwise, apply_spatial,
                         build_rulebook, conv_cost, glorot_weights, pointwise_forward,
                         spatial_forward)
from .ssim import ssim
from .training import (SGD, TOY_GRID, ToyPipelineConfig, ToyRun, confusion_matrix, ema_update,
                       evaluate, iou_per_class, label_frame, label_stage, load_model, mean_iou,
                       prepare_frame, prepare_run, run_toy_pipeline, save_model, train_stage,
                       train_step)
from .voxel import CylGridSpec, SparseVoxelTensor, voxelize

__version__ = "0.1.0"
