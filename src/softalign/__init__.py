"""softalign: a desk-scale laboratory for soft cross-modal alignment.

Softened targets from intra-modal self-similarity, negative
disentanglement, and symmetric KL objectives over toy dual-stream
encoders, with hand-derived gradients verified by finite differences and
synthetic many-to-many retrieval benchmarks.
"""

from .distributions import (
    NegDisentangled,
    Temperature,
    cross_modal_dist,
    disentangle_negatives,
    intra_modal_dist,
    label_smooth_targets,
    mix_targets,
    one_hot_targets,
)
from .gradcheck import (
    GradCheckReport,
    GradientBundle,
    backward,
    check_gradients,
    finite_difference_grad,
)
from .harness import (
    LogitProfile,
    RetrievalResult,
    ablation_suite,
    gamma_sweep,
    logit_profile,
    retrieval_eval,
    retrieval_metrics,
)
from .numkit import l2_normalize_rows
from .objectives import (
    DistBundle,
    LossBreakdown,
    LossConfig,
    build_distributions,
    clip_loss,
    cross_entropy_rows,
    js_rows,
    kl_rows,
    mixed_guidance_loss,
    relation_enhanced_soft_loss,
    soft_loss,
    softclip_total,
    sym_kl_rows,
)
from .synthgen import SynthDataset, SynthSpec, generate
from .trainer import (
    TrainConfig,
    TrainState,
    lr_at,
    optimizer_step,
    train,
)

__version__ = "0.1.0"
