"""Named synthetic workloads for the aegem benchmark.

Every workload is a plain `RunConfig` built from the existing config
fields; the benchmark seed becomes the run seed, which also generates
the synthetic scene.  All scenes are noise-free (SNR infinite), have
three endmembers and use the default elliptical kernel (a=3, b=5).
"""
from __future__ import annotations

from aegem.autoencoder import AutoencoderConfig
from aegem.gcn import GcnConfig
from aegem.hsi import SceneSpec
from aegem.pipeline import RunConfig

INF = float("inf")


def _acceptance() -> RunConfig:
    # the tier-1 acceptance run: many tiny conv ops, AE training dominates
    return RunConfig(
        scene=SceneSpec(32, 32, 20, 3, snr_db=INF),
        ae=AutoencoderConfig(encoder_filters=(32, 16, 8, 3), encoder_kernels=(5, 3, 3, 1),
                             patch_size=9, epochs=20, batch_size=64),
        gcn=GcnConfig(hidden=128, epochs=600),
    )


def _samson_crop() -> RunConfig:
    # Samson's band count and the default AE at a crop: wide-channel,
    # GEMM-bound conv, and patch-wise inference is a large share
    return RunConfig(
        scene=SceneSpec(24, 24, 156, 3, snr_db=INF),
        ae=AutoencoderConfig(epochs=1),
        gcn=GcnConfig(),
    )


def _large_scene() -> RunConfig:
    # many pixels, light AE: the GCN and the per-pixel Python loops dominate
    return RunConfig(
        scene=SceneSpec(112, 112, 32, 3, snr_db=INF),
        ae=AutoencoderConfig(encoder_filters=(16, 3), encoder_kernels=(3, 1), patch_size=5,
                             decoder_kernel=3, epochs=1, batch_size=256),
        gcn=GcnConfig(),
    )


def _smoke() -> RunConfig:
    # seconds-long; drives the whole runner in the benchmark's own tests
    return RunConfig(
        scene=SceneSpec(8, 8, 6, 3, snr_db=INF),
        ae=AutoencoderConfig(encoder_filters=(4, 3), encoder_kernels=(3, 1), patch_size=5,
                             decoder_kernel=3, epochs=1, batch_size=32),
        gcn=GcnConfig(hidden=8, epochs=5),
    )


WORKLOADS = {
    "acceptance": _acceptance,
    "samson_crop": _samson_crop,
    "large_scene": _large_scene,
    "smoke": _smoke,
}


def build_config(name: str, seed: int, out_dir: str) -> RunConfig:
    """RunConfig of workload `name` for one seeded run writing to out_dir."""
    rc = WORKLOADS[name]()
    rc.seed = seed
    rc.out_dir = out_dir
    return rc
