"""Hardware-in-the-loop substrate: the Jetson Nano companion-computer model.

In the paper's HIL experiments (§IV.C.2, §V.B) the landing-system modules run
on a 4 GB Jetson Nano in MAXN power mode, with the TPH-YOLO model converted to
TensorRT.  The Nano's four CPU cores are the bottleneck: under load, planning
deadlines are missed, replans arrive late, and the collision rate rises
relative to SIL.

This package models that platform:

* :mod:`repro.hil.jetson` — the Jetson Nano resource model
  (:class:`JetsonNanoPlatform`), an :class:`~repro.core.platform.ExecutionPlatform`
  that scales the modules' nominal desktop latencies to Nano-class hardware,
  reports each tick's CPU/GPU/memory utilisation and misses deadlines when
  the decision period is exceeded.  The mission runner gathers those
  per-tick figures into each record's
  :class:`~repro.core.metrics.ResourceStats`, which Table III and Fig. 7
  read.  The ``jetson-nano`` campaign platform flies it with the default
  consumer-grade IMU and its jitter on seed 0; the field platform
  (:class:`repro.realworld.FieldPlatform`) extends it with live camera I/O,
  the live map's memory and the flight controller's IMU.  Detection runs on
  the GPU at ``JetsonNanoSpec.gpu_inference_latency`` a frame, the
  TensorRT-optimised detector's cost.
"""

from repro.hil.jetson import JetsonNanoPlatform, JetsonNanoSpec

__all__ = [
    "JetsonNanoPlatform",
    "JetsonNanoSpec",
]
