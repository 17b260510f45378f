"""Measurement utilities: registries, meters, histograms, tracing.

Every name below is re-exported lazily: a shard child that imports
``repro.metrics.registry`` and ``repro.metrics.tracing`` loads neither
the meters nor the resource model.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Counter": ".registry",
    "Gauge": ".registry",
    "Histogram": ".registry",
    "MetricsRegistry": ".registry",
    "ScopedRegistry": ".registry",
    "RateMeter": ".throughput",
    "StageTimer": ".throughput",
    "LatencyHistogram": ".histogram",
    "ResourceSample": ".resources",
    "ResourceUsageModel": ".resources",
    "NULL_TRACER": ".tracing",
    "NullTracer": ".tracing",
    "PIPELINE_STAGES": ".tracing",
    "PipelineTracer": ".tracing",
    "make_tracer": ".tracing",
})

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
