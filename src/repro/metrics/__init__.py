"""Measurement utilities: registries, meters, histograms, tracing."""

from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
)
from repro.metrics.throughput import RateMeter, StageTimer
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.resources import ResourceSample, ResourceUsageModel
from repro.metrics.tracing import (
    NULL_TRACER,
    NullTracer,
    PIPELINE_STAGES,
    PipelineTracer,
    make_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScopedRegistry",
    "RateMeter",
    "StageTimer",
    "LatencyHistogram",
    "ResourceSample",
    "ResourceUsageModel",
    "NULL_TRACER",
    "NullTracer",
    "PIPELINE_STAGES",
    "PipelineTracer",
    "make_tracer",
]
