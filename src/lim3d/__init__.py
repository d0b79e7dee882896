"""Sparse voxel convolutions, redundancy-aware frame sampling, reflectivity
features, and a semi-supervised toy training loop for LiDAR point clouds."""

from .autodiff import Tensor, log_softmax, softmax
from .errors import (CapacityError, DegenerateEmbeddingError, DivergenceError,
                     DomainError, FormatError, Lim3dError, LifecycleError,
                     ShapeError, ValidationError)
from .losses import LossConfig, kl_consistency, lovasz_softmax, total_loss
from .network import LayerSpec, MiniSegNet, mini_backbone_topology, topology_cost
from .pointcloud import (PointCloud, SceneSpec, load_frame, load_labels,
                         project_range_image, ranges_to_grayscale, read_pgm,
                         save_frame, save_labels, synth_sequence, write_pgm)
from .pseudolabel import (ContrastiveConfig, MemoryBank, PseudoLabelSet,
                          VoxelPredictions, bank_push_negatives,
                          build_anchor_set, crb_select, entropy_partition,
                          infonce_loss, positive_center, shannon_entropy)
from .reflectivity import (ReflecConfig, augment, coarse_histograms,
                           normalize_reflectivity, reflectivity)
from .sampling import (SamplingPlan, calibrate_beta, frame_redundancies,
                       passive_baselines, plan, supervisor)
from .sparseconv import (ConvKernel, CostReport, build_rulebook, cost,
                         glorot_kernel, identity_kernel, separable_conv,
                         sparse_pointwise_conv, submanifold_conv)
from .ssim import ssim
from .training import (SGD, TOY_GRID, ToyPipelineConfig, confusion_matrix, ema_update,
                       iou_per_class, label_frame, load_model, mean_iou, prepare_frame,
                       run_toy_pipeline, save_model, train_step)
from .voxel import (CylGridSpec, SparseVoxelTensor, densify, point_rows,
                    sparsify, voxelize)

__version__ = "0.1.0"
