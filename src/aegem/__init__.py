"""Hyperspectral unmixing toolkit.

Pipeline: a convolutional autoencoder extracts endmembers and abundance
maps, an elliptical-kernel pixel graph feeds a two-layer GCN that
refines the maps, and a per-endmember RMSE ensemble picks the final
stack.  Includes a synthetic-scene generator with ground truth and the
metric suite used to verify everything at desk scale.
"""

from .autoencoder import AutoencoderConfig, ConvAutoencoder, train_autoencoder
from .ensemble import EnsembleSelection, ensemble_select
from .gcn import GcnConfig, GcnModel, train_gcn
from .graph import (EllipseKernel, EllipticalGraph, build_graph, build_kernel,
                    laplacian, normalized_laplacian, rbf_adjacency,
                    sad_adjacency, tile_centroids)
from .hsi import (GroundTruth, HsiCube, SceneSpec, load_cube, normalize,
                  save_abundance_maps, save_cube, synthesize_scene)
from .metrics import MetricsReport, PermutationMatch, match_endmembers, rmse, sad
from .pipeline import RunConfig, parse_config, run_pipeline, run_repeated, write_config
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "AutoencoderConfig", "ConvAutoencoder", "EllipseKernel", "EllipticalGraph",
    "EnsembleSelection", "GcnConfig", "GcnModel", "GroundTruth", "HsiCube",
    "MetricsReport", "PermutationMatch", "RunConfig", "SceneSpec", "SplitMix64",
    "build_graph", "build_kernel", "ensemble_select", "laplacian",
    "load_cube", "match_endmembers", "normalize", "normalized_laplacian",
    "parse_config", "rbf_adjacency", "rmse", "run_pipeline", "run_repeated", "sad",
    "sad_adjacency", "save_abundance_maps", "save_cube", "synthesize_scene",
    "tile_centroids", "train_autoencoder", "train_gcn", "write_config",
]
