"""Desk-scale simulator for codebook-based mmWave beam training in a
vehicular street, comparing coupled and decoupled location-aided beam
selection over synthetic geometric MIMO-OFDM channels."""

from .arrays import ArrayGeometry, Codebook, dft_codebook, steering_vector
from .boosting import TrainConfig, TreeEnsembleModel, kfold_tune, param_count, train
from .channel import ChannelRealization, channel_for_ue, paths_to_channel
from .dataset import (ATRRow, DatasetSplit, TRRow, build_rate_dataset, split_dataset,
                      to_atr, to_throughput_ratios)
from .harness import EvalResult, ExperimentConfig, emit_outputs, run_experiment
from .linkeval import RateRow, sweep_all, sweep_paths, throughput_ratio
from .metrics import avg_throughput_ratio, misalignment_probability
from .scene import PathComponent, SceneConfig, SceneSnapshot, generate_snapshot, trace_paths
from .selectors import (BeamPairSet, ClusterCoveragePlan, DecoupledSets, kmeans,
                        kth_best_probability, overhead_bits, select_bs_coverage,
                        select_coupled, select_decoupled_no_location,
                        select_decoupled_with_location)

__all__ = [
    "ArrayGeometry", "Codebook", "dft_codebook", "steering_vector",
    "TrainConfig", "TreeEnsembleModel", "kfold_tune", "param_count", "train",
    "ChannelRealization", "channel_for_ue", "paths_to_channel",
    "ATRRow", "DatasetSplit", "TRRow", "build_rate_dataset", "split_dataset",
    "to_atr", "to_throughput_ratios",
    "EvalResult", "ExperimentConfig", "emit_outputs", "run_experiment",
    "RateRow", "sweep_all", "sweep_paths", "throughput_ratio",
    "avg_throughput_ratio", "misalignment_probability",
    "PathComponent", "SceneConfig", "SceneSnapshot", "generate_snapshot", "trace_paths",
    "BeamPairSet", "ClusterCoveragePlan", "DecoupledSets", "kmeans",
    "kth_best_probability", "overhead_bits", "select_bs_coverage",
    "select_coupled", "select_decoupled_no_location",
    "select_decoupled_with_location",
]

__version__ = "0.1.0"
