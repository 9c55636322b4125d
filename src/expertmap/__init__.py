"""Expert-label-driven metric learning and whitened diffusion embeddings."""

from .dataset import (DataMatrix, PolarityMap, ReferenceSet, apply_weights,
                      depolarize, load_matrix, preprocess, save_matrix,
                      select_reference, standardize)
from .cogeometry import (PartitionTree, TreeConfig, build_partition_tree,
                         cosine_affinity, coupled_refine, emd_distance_matrix,
                         impute_matrix)
from .expert import (LabelFunction, LabelMap, PseudopointSet, export_centroids,
                     extract_pseudopoints, import_labels, propagate_labels)
from .netens import (HyperRanges, Net, NetEnsemble, NetHyper, ensemble_rank,
                     forward_batch, lipschitz_bound, pretrain_autoencoder,
                     representation, train_backprop, train_ensemble)
from .spectral import (Embedding, Kernel, diffusion_embed, gaussian_kernel,
                       markov_normalize, nystrom_extend)
from .whiten import (LocalMoments, extend_standardized, local_moments,
                     standardized_embedding, whitened_distance_matrix)
from .synth import SynthConfig, acceptance_fixture, generate
from .errors import (BoundViolation, ExpertMapError, InternalError, ParseError,
                     TrainingDiverged, ValidationError)

__version__ = "0.1.0"
