"""Spatio-temporal graph wavelet toolkit.

Learns an attention-weighted transition graph from node time series, builds
the strong-product spatio-temporal graph, applies the fast spectral graph
wavelet transform, and classifies/ranks nodes by anomaly patterns.
"""

from .classify import (TorqueField, a_score, anomaly_metric, average_a_score,
                       classify_nodes, label_grid, log_normalize, rank_nodes,
                       robust_scale, slice_classification, torque)
from .config import RunConfig, load_config
from .errors import DataIOError, NumericError, StgwError, ValidationError
from .gat import (GatLayerParams, GatModel, SampleSets, TrainConfig,
                  attention_coefficients, bce_loss, edge_accuracy, elu,
                  extract_transition, influential_scores, layer_forward, make_samples,
                  negative_candidates, predict_edges, train)
from .graphs import (CaseMatrix, NodeRecord, RouteGraph, SpatioTemporalGraph,
                     SymmetricLaplacian, TransitionMatrix, base_laplacian,
                     build_route_graph, canonical_sign, downsample_mask, laplacian,
                     normalize_cases, strong_product)
from .pipeline import run_pipeline
from .sgwt import (ChebyshevExpansion, CoefficientTable, KernelDictionary, OpCounter,
                   cheb_apply, cheb_coeffs, exact_sgwt, expand_dictionary,
                   kernel_amplitude, make_dictionary, scaling_kernel, wavelet_kernel)
from .synth import AnomalyInjection, SyntheticSpec, generate, write_dataset

__version__ = "0.1.0"
