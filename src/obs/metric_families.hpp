// The metric catalog: every metric family the system can emit, declared
// once.
//
// GStruct declares a record layout once and derives the JVM and GPU views
// from that one declaration; this table does the same for metrics. Each
// family fixes its name, kind, unit, label keys, histogram layout and help
// text. Everything else derives from the entry:
//  * MetricsRegistry registers a series only through a `Metric`, and checks
//    the kind and label-key set when the series is created (a mismatch is
//    a GFLINK_CHECK programmer error naming the family and its keys);
//  * NodeSampler registers telemetry probes the same way;
//  * the EXPERIMENTS.md metric catalog is rendered from the table
//    (render_metric_catalog) and drift-checked by a ctest;
//  * metric_families.cpp static_asserts the table's invariants: one entry
//    per enum value in enum order, unique names, sorted keys, a tier key
//    on every spill family, a tenant key on every service family, and a
//    units suffix on every telemetry-plane family that matches its unit.
//
// Names are a stable machine interface (run reports, perfbench and the
// table generators read them), so an entry's name never changes in place.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gflink::obs {

/// How a family's series behave. Counter/Gauge/Histogram live in a
/// MetricsRegistry; Sampled* are telemetry-plane probe series (a sampled
/// counter reports its per-period delta).
enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram, SampledGauge, SampledCounter };

enum class Unit : std::uint8_t {
  Count, Bytes, Nanoseconds, Milliseconds, Seconds, Ratio, PerSecond, None
};

/// The catalog section a family is listed under (and, for Spill, Service
/// and Telemetry, the attribution rule it must satisfy).
enum class Subsystem : std::uint8_t {
  Dfs, Engine, Gpu, GStream, Net, Shuffle, Spill, Service, Trace, Telemetry, Bench
};

inline constexpr std::size_t kMaxLabelKeys = 2;

/// A label-key set, in ascending order (the order std::map iterates).
struct LabelKeys {
  std::array<std::string_view, kMaxLabelKeys> names{};
  std::size_t size = 0;

  constexpr LabelKeys() = default;
  template <typename... K>
    requires(sizeof...(K) >= 1 && sizeof...(K) <= kMaxLabelKeys)
  constexpr LabelKeys(K... keys) : names{std::string_view(keys)...}, size(sizeof...(K)) {}

  /// True when `labels` (a sorted range of key/value pairs) carries exactly
  /// these keys.
  template <typename LabelRange>
  bool matches(const LabelRange& labels) const {
    if (labels.size() != size) return false;
    std::size_t i = 0;
    for (const auto& kv : labels) {
      if (kv.first != names[i++]) return false;
    }
    return true;
  }

  /// "k1, k2" for messages and the catalog.
  std::string to_string() const;
};

struct HistogramLayout {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t buckets = 0;
};

enum class Metric : std::uint16_t {
  // Dfs
  DfsBlocksRead, DfsBytesRead, DfsBytesWritten, DfsLocalReads, DfsRemoteReads,
  // Engine
  EngineStages, EngineStageTasks, EngineRecordsIn, EngineRecordsOut, EngineShuffleBytes,
  EngineStageDurationNs, EngineTasksFailed, EngineTasksRetried, EngineTaskBusyNs,
  FaultCheckpoints, FaultWorkerFailures,
  // Gpu
  GpuBytesH2d, GpuBytesD2h, GpuKernels, GpuH2dBusyNs, GpuD2hBusyNs, GpuKernelBusyNs,
  GpuCopyComputeOverlapNs, GpuCopyComputeOverlapEfficiency, GpuStageBusyNs, GpuCacheHits,
  GpuCacheMisses, GpuCachePins, GpuCacheEvictions, GpuCacheCrossTenantEvictions,
  GpuCacheRegionUsedBytes, GpuStagingReservations, GpuStagingFailures, GpuStagingRingBytes,
  // GStream
  GstreamExecuted, GstreamSteals, GstreamCrossBulk, GstreamFreedStreams, GstreamLocalityHits,
  GstreamLocalityMisses, GstreamChunkedWorks, GstreamChunks, GstreamChunkFallbacks,
  GstreamOomRetries, GstreamPriorityBypass, GstreamQueueDepth, GworkLatencyNs, CacheHitRatio,
  CopyComputeOverlapEfficiency, LocalityHitRatio,
  // Net
  NetTransfers, NetMessages, NetBytes, NetRdmaBytes, NetRdmaWrites, NetRdmaAtomics,
  NetPipeTransfers, NetPipeBytes, NetPipeBusyNs, NetPipeQueueWaitNs,
  // Shuffle
  ShuffleSessions, ShuffleBlocks, ShuffleBytes, ShuffleCreditStalls, ShuffleSpillBlocks,
  ShuffleSpillBytes, ShuffleUnspillBytes, ShuffleTransferFaults, ShuffleTransferRetries,
  ShuffleTransferAborts, ShuffleOneSidedHistograms, ShuffleOneSidedWrites,
  ShuffleOneSidedBytes, ShuffleBlocksInFlight,
  // Spill
  SpillOffloadBlocks, SpillOffloadBytes, SpillLandedBlocks, SpillStoredBytes, SpillTierHits,
  SpillPromotions, SpillProducerStalls, SpillProducerStallNs, SpillFetchWaitNs,
  CodecCompressNs, CodecDecompressNs, CodecSavedBytes,
  // Service
  ServiceSubmitted, ServiceRejected, ServiceCancelled, ServiceCompleted, ServiceDispatchCost,
  ServiceQueueWaitNs, ServiceRunNs, ServiceLatencyNs,
  // Trace
  TraceSpans, TraceSpanNs, TraceCriticalPathSeconds, TraceStragglers, FlightSpans,
  FlightEvents, FlightFaults, FlightDumps,
  // Telemetry
  TelemetrySamples, TelemetrySnapshotBytes, TelemetryRingDownsamples, TelemetryPeriods,
  HealthEvents, TelemetryTaskBusyNs, TelemetryShuffleResidentBytes, TelemetrySpillQueueDepth,
  TelemetryShuffleInFlight, TelemetryGpuCacheUsedBytes, TelemetryGpuStagingBytes,
  TelemetryGstreamQueueDepth, TelemetryTenantQuotaUsedRatio, TelemetryServicePending,
  // Bench
  BenchCases, MultitenantJobsPerSecond, MultitenantWeightShare, MultitenantThroughputShare,
  MultitenantCacheShare, MultitenantP99LatencyS,
  HealthStragglerDetectMs, HealthStragglerNode, HealthStragglerScore, HealthSloDetectMs,
  HealthSloBurnRate, HealthEventsEmitted, TelemetryScenarioPeriods, TelemetryPagerankBaseS,
  TelemetryPagerankSampledS, TelemetryOverheadRatio, AblationShuffleSeconds,
  AblationShuffleChecksum, AblationPipelineSeconds, AblationPipelineOverlapEfficiency,
  AblationPipelineChunksPerWork, AblationPipelineGain, AblationSpillSeconds,
  AblationSpillStallSeconds, AblationSpillChecksum,
  kCount  // not a family: the number of families
};

struct MetricFamily {
  Metric id;
  std::string_view name;
  MetricKind kind;
  Unit unit;
  Subsystem subsystem;
  LabelKeys keys;                    // required label keys
  std::optional<LabelKeys> alt_keys;  // a second accepted key set, if any
  HistogramLayout layout;            // histograms only
  std::string_view help;

  /// True when a series with these labels belongs to this family.
  template <typename LabelRange>
  bool accepts(const LabelRange& labels) const {
    return keys.matches(labels) || (alt_keys && alt_keys->matches(labels));
  }
};

// clang-format off
inline constexpr auto kMetricFamilies = [] {
  using enum MetricKind;
  using enum Unit;
  using enum Subsystem;
  using M = Metric;
  const LabelKeys none;
  const std::optional<LabelKeys> no_alt;
  const HistogramLayout flat;
  const HistogramLayout ten_seconds{0.0, 1.0e10, 100};  // 0..10 s of virtual time
  return std::array{
    // ---- GDFS -------------------------------------------------------------
    MetricFamily{M::DfsBlocksRead, "dfs.blocks_read", Counter, Count, Dfs, none, no_alt, flat,
                 "blocks fetched via read_block"},
    MetricFamily{M::DfsBytesRead, "dfs.bytes_read", Counter, Bytes, Dfs, none, no_alt, flat,
                 "bytes fetched via read_block"},
    MetricFamily{M::DfsBytesWritten, "dfs.bytes_written", Counter, Bytes, Dfs, none, no_alt, flat,
                 "bytes appended via write"},
    MetricFamily{M::DfsLocalReads, "dfs.local_reads", Counter, Count, Dfs, none, no_alt, flat,
                 "reads served from a replica on the reader node"},
    MetricFamily{M::DfsRemoteReads, "dfs.remote_reads", Counter, Count, Dfs, none, no_alt, flat,
                 "reads that paid a network transfer"},
    // ---- Engine -----------------------------------------------------------
    MetricFamily{M::EngineStages, "engine.stages", Counter, Count, Engine, none, no_alt, flat,
                 "stages executed"},
    MetricFamily{M::EngineStageTasks, "engine.stage_tasks", Counter, Count, Engine, none, no_alt,
                 flat, "tasks scheduled across all stages"},
    MetricFamily{M::EngineRecordsIn, "engine.records_in", Counter, Count, Engine, none, no_alt,
                 flat, "records entering operators"},
    MetricFamily{M::EngineRecordsOut, "engine.records_out", Counter, Count, Engine, none, no_alt,
                 flat, "records leaving operators"},
    MetricFamily{M::EngineShuffleBytes, "engine.shuffle_bytes", Counter, Bytes, Engine, none,
                 no_alt, flat, "bytes handed to the shuffle service"},
    MetricFamily{M::EngineStageDurationNs, "engine_stage_duration_ns", Histogram, Nanoseconds,
                 Engine, none, no_alt, ten_seconds, "per-stage virtual duration"},
    MetricFamily{M::EngineTasksFailed, "engine_tasks_failed_total", Counter, Count, Engine, none,
                 no_alt, flat, "task attempts lost to worker failures"},
    MetricFamily{M::EngineTasksRetried, "engine_tasks_retried_total", Counter, Count, Engine,
                 none, no_alt, flat, "task attempts rescheduled after failure"},
    MetricFamily{M::EngineTaskBusyNs, "engine.task_busy_ns", Counter, Nanoseconds, Engine,
                 {"node"}, no_alt, flat,
                 "per-worker task busy time; the straggler detector's input"},
    MetricFamily{M::FaultCheckpoints, "fault.checkpoints", Counter, Count, Engine, none, no_alt,
                 flat, "checkpoints taken"},
    MetricFamily{M::FaultWorkerFailures, "fault.worker_failures", Counter, Count, Engine, none,
                 no_alt, flat, "injected worker failures"},
    // ---- GPU device & cache -----------------------------------------------
    MetricFamily{M::GpuBytesH2d, "gpu_bytes_h2d_total", Counter, Bytes, Gpu, {"gpu"}, no_alt,
                 flat, "bytes copied host to device"},
    MetricFamily{M::GpuBytesD2h, "gpu_bytes_d2h_total", Counter, Bytes, Gpu, {"gpu"}, no_alt,
                 flat, "bytes copied device to host"},
    MetricFamily{M::GpuKernels, "gpu_kernels_total", Counter, Count, Gpu, {"gpu"}, no_alt, flat,
                 "kernel launches"},
    MetricFamily{M::GpuH2dBusyNs, "gpu_h2d_busy_ns_total", Counter, Nanoseconds, Gpu, {"gpu"},
                 no_alt, flat, "H2D copy-engine busy time"},
    MetricFamily{M::GpuD2hBusyNs, "gpu_d2h_busy_ns_total", Counter, Nanoseconds, Gpu, {"gpu"},
                 no_alt, flat, "D2H copy-engine busy time"},
    MetricFamily{M::GpuKernelBusyNs, "gpu_kernel_busy_ns_total", Counter, Nanoseconds, Gpu,
                 {"gpu"}, no_alt, flat, "compute-engine busy time"},
    MetricFamily{M::GpuCopyComputeOverlapNs, "gpu_copy_compute_overlap_ns_total", Counter,
                 Nanoseconds, Gpu, {"gpu"}, no_alt, flat,
                 "time copy and compute engines ran concurrently"},
    MetricFamily{M::GpuCopyComputeOverlapEfficiency, "gpu_copy_compute_overlap_efficiency",
                 Gauge, Ratio, Gpu, {"gpu"}, no_alt, flat,
                 "overlap / min(copy busy, kernel busy)"},
    MetricFamily{M::GpuStageBusyNs, "gpu_stage_busy_ns", Counter, Nanoseconds, Gpu, {"stage"},
                 no_alt, flat, "chunked-pipeline busy time per stage (h2d/kernel/d2h)"},
    MetricFamily{M::GpuCacheHits, "gpu_cache_hits_total", Counter, Count, Gpu, none, no_alt,
                 flat, "GMemoryManager lookups served from device cache"},
    MetricFamily{M::GpuCacheMisses, "gpu_cache_misses_total", Counter, Count, Gpu, none, no_alt,
                 flat, "lookups that missed"},
    MetricFamily{M::GpuCachePins, "gpu_cache_pins_total", Counter, Count, Gpu, none, no_alt,
                 flat, "pin operations on cached regions"},
    MetricFamily{M::GpuCacheEvictions, "gpu_cache_evictions_total", Counter, Count, Gpu, none,
                 no_alt, flat, "regions evicted to make space"},
    MetricFamily{M::GpuCacheCrossTenantEvictions, "gpu_cache_cross_tenant_evictions_total",
                 Counter, Count, Gpu, none, no_alt, flat,
                 "entries evicted from an over-quota tenant to relieve another tenant's "
                 "pressure"},
    MetricFamily{M::GpuCacheRegionUsedBytes, "gpu_cache_region_used_bytes", Gauge, Bytes, Gpu,
                 {"gpu"}, no_alt, flat, "bytes currently cached"},
    MetricFamily{M::GpuStagingReservations, "gpu_staging_reservations_total", Counter, Count,
                 Gpu, none, no_alt, flat, "staging-ring reservations granted"},
    MetricFamily{M::GpuStagingFailures, "gpu_staging_failures_total", Counter, Count, Gpu, none,
                 no_alt, flat, "staging reservations denied after eviction"},
    MetricFamily{M::GpuStagingRingBytes, "gpu_staging_ring_bytes", Gauge, Bytes, Gpu, {"gpu"},
                 no_alt, flat, "bytes currently reserved in the staging ring"},
    // ---- GStream scheduler ------------------------------------------------
    MetricFamily{M::GstreamExecuted, "gstream_executed_total", Counter, Count, GStream, {"gpu"},
                 no_alt, flat, "GWorks completed per GPU"},
    MetricFamily{M::GstreamSteals, "gstream_steals_total", Counter, Count, GStream, none, no_alt,
                 flat, "GWorks stolen across stream queues"},
    MetricFamily{M::GstreamCrossBulk, "gstream_cross_bulk_total", Counter, Count, GStream, none,
                 no_alt, flat, "GWorks executed outside their home bulk"},
    MetricFamily{M::GstreamFreedStreams, "gstream_freed_streams_total", Counter, Count, GStream,
                 none, no_alt, flat, "freed-stream reuse events"},
    MetricFamily{M::GstreamLocalityHits, "gstream_locality_hits_total", Counter, Count, GStream,
                 none, no_alt, flat, "GWorks placed on a GPU already caching their input"},
    MetricFamily{M::GstreamLocalityMisses, "gstream_locality_misses_total", Counter, Count,
                 GStream, none, no_alt, flat, "GWorks placed without cached input"},
    MetricFamily{M::GstreamChunkedWorks, "gstream_chunked_works_total", Counter, Count, GStream,
                 none, no_alt, flat, "GWorks executed via the chunked pipeline"},
    MetricFamily{M::GstreamChunks, "gstream_chunks_total", Counter, Count, GStream, none, no_alt,
                 flat, "chunks processed by the pipeline"},
    MetricFamily{M::GstreamChunkFallbacks, "gstream_chunk_fallbacks_total", Counter, Count,
                 GStream, none, no_alt, flat, "chunked attempts that fell back to whole-batch"},
    MetricFamily{M::GstreamOomRetries, "gstream_oom_retries_total", Counter, Count, GStream,
                 none, no_alt, flat, "GWorks retried after device OOM"},
    MetricFamily{M::GstreamPriorityBypass, "gstream_priority_bypass_total", Counter, Count,
                 GStream, none, no_alt, flat,
                 "pops where a higher-priority tenant's GWork overtook the queue front"},
    MetricFamily{M::GstreamQueueDepth, "gstream_queue_depth", Histogram, Count, GStream, none,
                 no_alt, HistogramLayout{0.0, 256.0, 64},
                 "depth of the GPU queue a GWork joins when no stream is idle"},
    MetricFamily{M::GworkLatencyNs, "gwork_latency_ns", Histogram, Nanoseconds, GStream, none,
                 no_alt, HistogramLayout{0.0, 5.0e7, 100}, "submit-to-complete GWork latency"},
    MetricFamily{M::CacheHitRatio, "cache_hit_ratio", Gauge, Ratio, GStream, none, no_alt, flat,
                 "device-cache hit ratio over the run"},
    MetricFamily{M::CopyComputeOverlapEfficiency, "copy_compute_overlap_efficiency", Gauge,
                 Ratio, GStream, none, no_alt, flat, "cluster-level overlap efficiency"},
    MetricFamily{M::LocalityHitRatio, "locality_hit_ratio", Gauge, Ratio, GStream, none, no_alt,
                 flat, "locality hits / (hits + misses)"},
    // ---- Network ----------------------------------------------------------
    MetricFamily{M::NetTransfers, "net.transfers", Counter, Count, Net, none, no_alt, flat,
                 "point-to-point transfers"},
    MetricFamily{M::NetMessages, "net.messages", Counter, Count, Net, none, no_alt, flat,
                 "control messages"},
    MetricFamily{M::NetBytes, "net.bytes", Counter, Bytes, Net, none, no_alt, flat,
                 "payload bytes moved"},
    MetricFamily{M::NetRdmaBytes, "net.rdma_bytes", Counter, Bytes, Net, none, no_alt, flat,
                 "bytes moved by one-sided remote writes over the HCA pipes"},
    MetricFamily{M::NetRdmaWrites, "net.rdma_writes", Counter, Count, Net, none, no_alt, flat,
                 "one-sided remote writes issued"},
    MetricFamily{M::NetRdmaAtomics, "net.rdma_atomics", Counter, Count, Net, none, no_alt, flat,
                 "remote fetch-add round trips (local fetch-adds are free and uncounted)"},
    MetricFamily{M::NetPipeTransfers, "net_pipe_transfers_total", Counter, Count, Net, {"pipe"},
                 no_alt, flat, "per-pipe transfer count"},
    MetricFamily{M::NetPipeBytes, "net_pipe_bytes_total", Counter, Bytes, Net, {"pipe"}, no_alt,
                 flat, "per-pipe bytes moved"},
    MetricFamily{M::NetPipeBusyNs, "net_pipe_busy_ns_total", Counter, Nanoseconds, Net,
                 {"pipe"}, no_alt, flat, "per-pipe busy time"},
    MetricFamily{M::NetPipeQueueWaitNs, "net_pipe_queue_wait_ns_total", Counter, Nanoseconds,
                 Net, {"pipe"}, no_alt, flat, "per-pipe FIFO queueing delay"},
    // ---- Shuffle ----------------------------------------------------------
    MetricFamily{M::ShuffleSessions, "shuffle.sessions", Counter, Count, Shuffle, none, no_alt,
                 flat, "shuffle sessions opened"},
    MetricFamily{M::ShuffleBlocks, "shuffle.blocks", Counter, Count, Shuffle, none, no_alt, flat,
                 "blocks sent"},
    MetricFamily{M::ShuffleBytes, "shuffle.bytes", Counter, Bytes, Shuffle, none, no_alt, flat,
                 "bytes sent over the network"},
    MetricFamily{M::ShuffleCreditStalls, "shuffle.credit_stalls", Counter, Count, Shuffle, none,
                 no_alt, flat, "sends stalled waiting for receiver credits"},
    MetricFamily{M::ShuffleSpillBlocks, "shuffle.spill_blocks", Counter, Count, Shuffle, none,
                 no_alt, flat, "blocks spilled under backpressure"},
    MetricFamily{M::ShuffleSpillBytes, "shuffle.spill_bytes", Counter, Bytes, Shuffle, none,
                 no_alt, flat, "bytes spilled"},
    MetricFamily{M::ShuffleUnspillBytes, "shuffle.unspill_bytes", Counter, Bytes, Shuffle, none,
                 no_alt, flat, "spilled bytes read back"},
    MetricFamily{M::ShuffleTransferFaults, "shuffle.transfer_faults", Counter, Count, Shuffle,
                 none, no_alt, flat, "injected transfer faults consumed"},
    MetricFamily{M::ShuffleTransferRetries, "shuffle.transfer_retries", Counter, Count, Shuffle,
                 none, no_alt, flat, "block sends retried after a fault"},
    MetricFamily{M::ShuffleTransferAborts, "shuffle.transfer_aborts", Counter, Count, Shuffle,
                 none, no_alt, flat, "block sends abandoned after max retries"},
    MetricFamily{M::ShuffleOneSidedHistograms, "shuffle.one_sided_histograms", Counter, Count,
                 Shuffle, none, no_alt, flat,
                 "per-destination histogram announcements (one_sided mode)"},
    MetricFamily{M::ShuffleOneSidedWrites, "shuffle.one_sided_writes", Counter, Count, Shuffle,
                 none, no_alt, flat, "bulk one-sided bucket writes that landed"},
    MetricFamily{M::ShuffleOneSidedBytes, "shuffle.one_sided_bytes", Counter, Bytes, Shuffle,
                 none, no_alt, flat, "bytes landed by one-sided writes"},
    MetricFamily{M::ShuffleBlocksInFlight, "shuffle_blocks_in_flight", Gauge, Count, Shuffle,
                 none, no_alt, flat, "blocks currently in flight cluster-wide"},
    // ---- Spill tier store: every family carries the tier ------------------
    MetricFamily{M::SpillOffloadBlocks, "spill_offload_blocks_total", Counter, Count, Spill,
                 {"tier"}, no_alt, flat,
                 "blocks accepted by offload(), labelled by the tier reserved for them"},
    MetricFamily{M::SpillOffloadBytes, "spill_offload_bytes_total", Counter, Bytes, Spill,
                 {"tier"}, no_alt, flat, "raw (pre-codec) bytes accepted by offload()"},
    MetricFamily{M::SpillLandedBlocks, "spill_landed_blocks_total", Counter, Count, Spill,
                 {"tier"}, no_alt, flat, "blocks a spill worker finished writing to their tier"},
    MetricFamily{M::SpillStoredBytes, "spill_stored_bytes_total", Counter, Bytes, Spill,
                 {"tier"}, no_alt, flat, "post-codec bytes landed per tier (memory stores raw)"},
    MetricFamily{M::SpillTierHits, "spill_tier_hits_total", Counter, Count, Spill, {"tier"},
                 no_alt, flat, "fetches served, labelled by the tier that held the block"},
    MetricFamily{M::SpillPromotions, "spill_promotions_total", Counter, Count, Spill, {"tier"},
                 no_alt, flat, "re-read blocks promoted up the ladder (the tier promoted to)"},
    MetricFamily{M::SpillProducerStalls, "spill_producer_stalls_total", Counter, Count, Spill,
                 {"tier"}, no_alt, flat,
                 "offloads that blocked because the node's spill queue was full"},
    MetricFamily{M::SpillProducerStallNs, "spill_producer_stall_ns_total", Counter, Nanoseconds,
                 Spill, {"tier"}, no_alt, flat, "producer time lost to full-queue stalls"},
    MetricFamily{M::SpillFetchWaitNs, "spill_fetch_wait_ns_total", Counter, Nanoseconds, Spill,
                 {"tier"}, no_alt, flat,
                 "fetch time spent awaiting a block still in flight to its tier"},
    MetricFamily{M::CodecCompressNs, "codec_compress_ns_total", Counter, Nanoseconds, Spill,
                 {"tier"}, no_alt, flat,
                 "virtual time spent compressing blocks (codec=lz, non-memory tiers)"},
    MetricFamily{M::CodecDecompressNs, "codec_decompress_ns_total", Counter, Nanoseconds, Spill,
                 {"tier"}, no_alt, flat, "virtual time spent decompressing fetched blocks"},
    MetricFamily{M::CodecSavedBytes, "codec_saved_bytes_total", Counter, Bytes, Spill, {"tier"},
                 no_alt, flat, "raw-minus-stored bytes the codec avoided writing"},
    // ---- JobService: every family carries the tenant ----------------------
    MetricFamily{M::ServiceSubmitted, "service_submitted_total", Counter, Count, Service,
                 {"tenant"}, no_alt, flat, "jobs submitted (admitted + rejected)"},
    MetricFamily{M::ServiceRejected, "service_rejected_total", Counter, Count, Service,
                 {"tenant"}, no_alt, flat,
                 "submissions rejected by the bounded admission queue"},
    MetricFamily{M::ServiceCancelled, "service_cancelled_total", Counter, Count, Service,
                 {"tenant"}, no_alt, flat, "pending submissions withdrawn before dispatch"},
    MetricFamily{M::ServiceCompleted, "service_completed_total", Counter, Count, Service,
                 {"tenant"}, no_alt, flat, "jobs run to completion"},
    MetricFamily{M::ServiceDispatchCost, "service_dispatch_cost_total", Counter, None, Service,
                 {"tenant"}, no_alt, flat, "summed declared DRR cost of dispatched jobs"},
    MetricFamily{M::ServiceQueueWaitNs, "service_queue_wait_ns", Histogram, Nanoseconds, Service,
                 {"tenant"}, no_alt, ten_seconds, "admission-to-dispatch queue wait"},
    MetricFamily{M::ServiceRunNs, "service_run_ns", Histogram, Nanoseconds, Service, {"tenant"},
                 no_alt, ten_seconds, "dispatch-to-completion run time"},
    MetricFamily{M::ServiceLatencyNs, "service_latency_ns", Histogram, Nanoseconds, Service,
                 {"tenant"}, no_alt, ten_seconds, "admission-to-completion end-to-end latency"},
    // ---- Causal tracing & flight recorder ---------------------------------
    MetricFamily{M::TraceSpans, "trace_spans_total", Counter, Count, Trace, none, no_alt, flat,
                 "causal spans recorded (counted even when the store is not retaining)"},
    MetricFamily{M::TraceSpanNs, "trace_span_ns_total", Counter, Nanoseconds, Trace,
                 {"category"}, no_alt, flat, "total span time per span category"},
    MetricFamily{M::TraceCriticalPathSeconds, "trace_critical_path_seconds", Gauge, Seconds,
                 Trace, none, LabelKeys{"category"}, flat,
                 "critical-path makespan; the per-category series sum to the unlabelled "
                 "total exactly"},
    MetricFamily{M::TraceStragglers, "trace_stragglers_total", Gauge, Count, Trace, none, no_alt,
                 flat, "spans flagged slower than their peer group's p95"},
    MetricFamily{M::FlightSpans, "flight_spans_total", Counter, Count, Trace, none, no_alt, flat,
                 "spans streamed through the flight-recorder rings"},
    MetricFamily{M::FlightEvents, "flight_events_total", Counter, Count, Trace, none, no_alt,
                 flat, "discrete flight events noted (cache evictions, retries, aborts)"},
    MetricFamily{M::FlightFaults, "flight_faults_total", Counter, Count, Trace, none, no_alt,
                 flat, "faults noted (worker failures, injected transfer faults)"},
    MetricFamily{M::FlightDumps, "flight_dumps_total", Counter, Count, Trace, none, no_alt, flat,
                 "flight dumps written (auto on first fault, or at exit via --flight-dump)"},
    // ---- Telemetry plane: every name carries a suffix matching its unit ---
    MetricFamily{M::TelemetrySamples, "telemetry_samples_total", Counter, Count, Telemetry,
                 {"node"}, no_alt, flat, "sampler ticks taken"},
    MetricFamily{M::TelemetrySnapshotBytes, "telemetry_snapshot_bytes_total", Counter, Bytes,
                 Telemetry, {"node"}, no_alt, flat,
                 "snapshot bytes shipped to the master over the node's pipe"},
    MetricFamily{M::TelemetryRingDownsamples, "telemetry_ring_downsamples_total", Counter, Count,
                 Telemetry, {"node"}, no_alt, flat,
                 "ring-buffer wrap events that halved a series' resolution"},
    MetricFamily{M::TelemetryPeriods, "telemetry_periods_total", Counter, Count, Telemetry, none,
                 no_alt, flat, "aggregation periods the master merged across all nodes"},
    MetricFamily{M::HealthEvents, "health_events_total", Counter, Count, Telemetry,
                 {"detector", "node"}, no_alt, flat, "HealthEvents emitted"},
    MetricFamily{M::TelemetryTaskBusyNs, "telemetry_task_busy_ns", SampledCounter, Nanoseconds,
                 Telemetry, none, no_alt, flat,
                 "per-worker task busy time per period (the straggler signal)"},
    MetricFamily{M::TelemetryShuffleResidentBytes, "telemetry_shuffle_resident_bytes",
                 SampledGauge, Bytes, Telemetry, none, no_alt, flat,
                 "shuffle exchange-buffer residency per worker"},
    MetricFamily{M::TelemetrySpillQueueDepth, "telemetry_spill_queue_depth_total", SampledGauge,
                 Count, Telemetry, none, no_alt, flat, "spill blocks queued per worker"},
    MetricFamily{M::TelemetryShuffleInFlight, "telemetry_shuffle_in_flight_total", SampledGauge,
                 Count, Telemetry, none, no_alt, flat,
                 "shuffle blocks in flight cluster-wide (master)"},
    MetricFamily{M::TelemetryGpuCacheUsedBytes, "telemetry_gpu_cache_used_bytes", SampledGauge,
                 Bytes, Telemetry, none, no_alt, flat, "GPU cache-region occupancy per worker"},
    MetricFamily{M::TelemetryGpuStagingBytes, "telemetry_gpu_staging_bytes", SampledGauge, Bytes,
                 Telemetry, none, no_alt, flat, "GPU staging-ring bytes per worker"},
    MetricFamily{M::TelemetryGstreamQueueDepth, "telemetry_gstream_queue_depth_total",
                 SampledGauge, Count, Telemetry, none, no_alt, flat,
                 "pending GWorks per worker"},
    MetricFamily{M::TelemetryTenantQuotaUsedRatio, "telemetry_tenant_quota_used_ratio",
                 SampledGauge, Ratio, Telemetry, {"tenant"}, no_alt, flat,
                 "fraction of a tenant's GPU cache quota in use per worker"},
    MetricFamily{M::TelemetryServicePending, "telemetry_service_pending_total", SampledGauge,
                 Count, Telemetry, {"tenant"}, no_alt, flat,
                 "per-tenant admission-queue depth (master)"},
    // ---- Bench report gauges ----------------------------------------------
    MetricFamily{M::BenchCases, "bench_cases_total", Counter, Count, Bench, none, no_alt, flat,
                 "cases folded into a bench binary's report"},
    MetricFamily{M::MultitenantJobsPerSecond, "multitenant_jobs_per_second", Gauge, PerSecond,
                 Bench, none, no_alt, flat, "completed jobs per virtual second"},
    MetricFamily{M::MultitenantWeightShare, "multitenant_weight_share", Gauge, Ratio, Bench,
                 {"tenant"}, no_alt, flat, "tenant weight / total weight"},
    MetricFamily{M::MultitenantThroughputShare, "multitenant_throughput_share", Gauge, Ratio,
                 Bench, {"tenant"}, no_alt, flat, "tenant completions / all completions"},
    MetricFamily{M::MultitenantCacheShare, "multitenant_cache_share", Gauge, Ratio, Bench,
                 {"tenant"}, no_alt, flat, "tenant GPU-cache inserts / all inserts"},
    MetricFamily{M::MultitenantP99LatencyS, "multitenant_p99_latency_s", Gauge, Seconds, Bench,
                 {"tenant"}, no_alt, flat, "tenant p99 end-to-end job latency"},
    MetricFamily{M::HealthStragglerDetectMs, "health_straggler_detect_ms", Gauge, Milliseconds,
                 Bench, none, no_alt, flat, "virtual time the straggler detector fired"},
    MetricFamily{M::HealthStragglerNode, "health_straggler_node", Gauge, None, Bench, none,
                 no_alt, flat, "node the straggler detector flagged"},
    MetricFamily{M::HealthStragglerScore, "health_straggler_score", Gauge, None, Bench, none,
                 no_alt, flat, "straggler score at detection"},
    MetricFamily{M::HealthSloDetectMs, "health_slo_detect_ms", Gauge, Milliseconds, Bench, none,
                 no_alt, flat, "virtual time the SLO burn-rate detector fired"},
    MetricFamily{M::HealthSloBurnRate, "health_slo_burn_rate", Gauge, None, Bench, none, no_alt,
                 flat, "burn rate at detection"},
    MetricFamily{M::HealthEventsEmitted, "health_events_emitted", Gauge, Count, Bench, none,
                 no_alt, flat, "HealthEvents emitted by the scenario"},
    MetricFamily{M::TelemetryScenarioPeriods, "telemetry_scenario_periods", Gauge, Count, Bench,
                 none, no_alt, flat, "aggregation periods in the detection scenario"},
    MetricFamily{M::TelemetryPagerankBaseS, "telemetry_pagerank_base_s", Gauge, Seconds, Bench,
                 none, no_alt, flat, "PageRank makespan without telemetry"},
    MetricFamily{M::TelemetryPagerankSampledS, "telemetry_pagerank_sampled_s", Gauge, Seconds,
                 Bench, none, no_alt, flat, "PageRank makespan with telemetry sampling"},
    MetricFamily{M::TelemetryOverheadRatio, "telemetry_overhead_ratio", Gauge, Ratio, Bench,
                 none, no_alt, flat, "(sampled - base) / base makespan"},
    MetricFamily{M::AblationShuffleSeconds, "ablation_shuffle_seconds", Gauge, Seconds, Bench,
                 {"dist", "mode"}, no_alt, flat, "PageRank makespan per shuffle mode"},
    MetricFamily{M::AblationShuffleChecksum, "ablation_shuffle_checksum", Gauge, None, Bench,
                 {"dist", "mode"}, no_alt, flat, "output checksum per shuffle mode"},
    MetricFamily{M::AblationPipelineSeconds, "ablation_pipeline_seconds", Gauge, Seconds, Bench,
                 {"chunk"}, no_alt, flat, "makespan per chunk size"},
    MetricFamily{M::AblationPipelineOverlapEfficiency, "ablation_pipeline_overlap_efficiency",
                 Gauge, Ratio, Bench, {"chunk"}, no_alt, flat,
                 "copy/compute overlap efficiency per chunk size"},
    MetricFamily{M::AblationPipelineChunksPerWork, "ablation_pipeline_chunks_per_work", Gauge,
                 Count, Bench, {"chunk"}, no_alt, flat, "chunks per GWork per chunk size"},
    MetricFamily{M::AblationPipelineGain, "ablation_pipeline_gain", Gauge, None, Bench,
                 {"chunk"}, no_alt, flat, "monolithic / chunked makespan"},
    MetricFamily{M::AblationSpillSeconds, "ablation_spill_seconds", Gauge, Seconds, Bench,
                 {"codec", "path"}, no_alt, flat, "PageRank makespan per spill path and codec"},
    MetricFamily{M::AblationSpillStallSeconds, "ablation_spill_stall_seconds", Gauge, Seconds,
                 Bench, {"codec", "path"}, no_alt, flat,
                 "spill time on the critical path per spill path and codec"},
    MetricFamily{M::AblationSpillChecksum, "ablation_spill_checksum", Gauge, None, Bench,
                 {"codec", "path"}, no_alt, flat, "output checksum per spill path and codec"},
  };
}();
// clang-format on

/// The family behind `m` (O(1): the table is indexed by the enum).
constexpr const MetricFamily& metric_family(Metric m) {
  return kMetricFamilies[static_cast<std::size_t>(m)];
}

/// Aborts with a GFLINK_CHECK failure naming the family, its kind and its
/// accepted label keys next to what the caller registered.
[[noreturn]] void metric_registration_failed(const MetricFamily& f, MetricKind as,
                                             const std::string& got_keys);

/// The registration check, run once when a series is created: the family
/// must be of kind `as` and accept the label-key set. No allocation and no
/// table scan on the passing path.
template <typename LabelRange>
void check_metric_registration(const MetricFamily& f, MetricKind as, const LabelRange& labels) {
  if (f.kind == as && f.accepts(labels)) return;
  std::string got;
  for (const auto& kv : labels) {
    if (!got.empty()) got += ", ";
    got += kv.first;
  }
  metric_registration_failed(f, as, got);
}

/// The EXPERIMENTS.md metric catalog (the text between the
/// metric-catalog markers), rendered from kMetricFamilies.
std::string render_metric_catalog();

}  // namespace gflink::obs
