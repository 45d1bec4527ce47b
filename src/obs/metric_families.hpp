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
//  * Telemetry::add_probe registers probe series the same way;
//  * the EXPERIMENTS.md metric catalog is rendered from the table
//    (render_metric_catalog) and drift-checked by a ctest;
//  * metric_families.cpp static_asserts the table's invariants: one entry
//    per enum value in enum order, unique names, sorted keys, a tier key
//    on every spill family, a tenant key on every service family, and a
//    units suffix on every telemetry family that matches its unit.
//
// Names are a stable machine interface (run reports, perfbench and the
// table generators read them), so an entry's name never changes in place.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gflink::obs {

/// How a family's series behave. Counter/Gauge/Histogram live in a
/// MetricsRegistry; Sampled* are telemetry probe series (a sampled counter
/// reports its per-period delta).
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
  EngineStages, EngineStageTasks, EngineRecordsIn, EngineStageDurationNs, EngineTasksFailed,
  EngineTasksRetried, EngineTaskBusyNs, FaultCheckpoints,
  // Gpu
  GpuBytesH2d, GpuKernels, GpuH2dBusyNs, GpuD2hBusyNs, GpuKernelBusyNs, GpuCopyComputeOverlapNs,
  GpuCopyComputeOverlapEfficiency, GpuStageBusyNs, GpuCacheHits, GpuCacheMisses,
  GpuCacheEvictions, GpuCacheCrossTenantEvictions,
  // GStream
  GstreamSteals, GstreamLocalityHits, GstreamLocalityMisses, GstreamChunkFallbacks,
  GstreamOomRetries, GstreamQueueDepth, GworkLatencyNs,
  // Net
  NetBytes, NetRdmaBytes, NetRdmaWrites, NetRdmaAtomics, NetPipeBytes, NetPipeBusyNs,
  NetPipeQueueWaitNs,
  // Shuffle
  ShuffleSessions, ShuffleBlocks, ShuffleBytes, ShuffleCreditStalls, ShuffleSpillBytes,
  ShuffleUnspillBytes, ShuffleTransferFaults, ShuffleTransferRetries, ShuffleTransferAborts,
  ShuffleOneSidedHistograms, ShuffleOneSidedWrites, ShuffleOneSidedBytes,
  // Spill
  SpillOffloadBlocks, SpillOffloadBytes, SpillLandedBlocks, SpillStoredBytes, SpillTierHits,
  SpillPromotions, SpillProducerStalls, SpillProducerStallNs, SpillFetchWaitNs,
  CodecCompressNs, CodecDecompressNs, CodecSavedBytes,
  // Service
  ServiceSubmitted, ServiceRejected, ServiceCancelled, ServiceCompleted, ServiceQueueWaitNs,
  ServiceLatencyNs,
  // Trace
  TraceSpans, TraceSpanNs, FlightSpans, FlightEvents, FlightFaults, FlightDumps,
  // Telemetry
  TelemetryPeriods, HealthEvents, TelemetryTaskBusyNs, TelemetryShuffleResidentBytes,
  TelemetrySpillQueueDepth, TelemetryShuffleInFlight, TelemetryGpuCacheUsedBytes,
  TelemetryGstreamQueueDepth, TelemetryTenantQuotaUsedRatio, TelemetryServicePending,
  // Bench
  BenchCases, MultitenantJobsPerSecond, MultitenantWeightShare, MultitenantThroughputShare,
  MultitenantCacheShare, MultitenantP99LatencyS,
  HealthStragglerDetectMs, HealthStragglerNode, HealthStragglerScore, HealthSloDetectMs,
  HealthSloBurnRate, HealthEventsEmitted, TelemetryScenarioPeriods, AblationShuffleSeconds,
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
  LabelKeys keys;          // required label keys
  HistogramLayout layout;  // histograms only
  std::string_view help;
};

// clang-format off
inline constexpr auto kMetricFamilies = [] {
  using enum MetricKind;
  using enum Unit;
  using enum Subsystem;
  using M = Metric;
  const LabelKeys none;
  const HistogramLayout flat;
  const HistogramLayout ten_seconds{0.0, 1.0e10, 100};  // 0..10 s of virtual time
  return std::array{
    // ---- GDFS -------------------------------------------------------------
    MetricFamily{M::DfsBlocksRead, "dfs.blocks_read", Counter, Count, Dfs, none, flat,
                 "blocks fetched via read_block"},
    MetricFamily{M::DfsBytesRead, "dfs.bytes_read", Counter, Bytes, Dfs, none, flat,
                 "bytes fetched via read_block"},
    MetricFamily{M::DfsBytesWritten, "dfs.bytes_written", Counter, Bytes, Dfs, none, flat,
                 "bytes appended via write"},
    MetricFamily{M::DfsLocalReads, "dfs.local_reads", Counter, Count, Dfs, none, flat,
                 "reads served from a replica on the reader node"},
    MetricFamily{M::DfsRemoteReads, "dfs.remote_reads", Counter, Count, Dfs, none, flat,
                 "reads that paid a network transfer"},
    // ---- Engine -----------------------------------------------------------
    MetricFamily{M::EngineStages, "engine.stages", Counter, Count, Engine, none, flat,
                 "stages executed"},
    MetricFamily{M::EngineStageTasks, "engine.stage_tasks", Counter, Count, Engine, none, flat,
                 "tasks scheduled across all stages"},
    MetricFamily{M::EngineRecordsIn, "engine.records_in", Counter, Count, Engine, none, flat,
                 "records entering operators"},
    MetricFamily{M::EngineStageDurationNs, "engine_stage_duration_ns", Histogram, Nanoseconds,
                 Engine, none, ten_seconds, "per-stage virtual duration"},
    MetricFamily{M::EngineTasksFailed, "engine_tasks_failed_total", Counter, Count, Engine, none,
                 flat, "task attempts lost to worker failures"},
    MetricFamily{M::EngineTasksRetried, "engine_tasks_retried_total", Counter, Count, Engine, none,
                 flat, "task attempts rescheduled after failure"},
    MetricFamily{M::EngineTaskBusyNs, "engine.task_busy_ns", Counter, Nanoseconds, Engine, {"node"},
                 flat, "per-worker task busy time; the straggler detector's input"},
    MetricFamily{M::FaultCheckpoints, "fault.checkpoints", Counter, Count, Engine, none, flat,
                 "checkpoints taken"},
    // ---- GPU device & cache -----------------------------------------------
    MetricFamily{M::GpuBytesH2d, "gpu_bytes_h2d_total", Counter, Bytes, Gpu, {"gpu"}, flat,
                 "bytes copied host to device"},
    MetricFamily{M::GpuKernels, "gpu_kernels_total", Counter, Count, Gpu, {"gpu"}, flat,
                 "kernel launches"},
    MetricFamily{M::GpuH2dBusyNs, "gpu_h2d_busy_ns_total", Counter, Nanoseconds, Gpu, {"gpu"}, flat,
                 "H2D copy-engine busy time"},
    MetricFamily{M::GpuD2hBusyNs, "gpu_d2h_busy_ns_total", Counter, Nanoseconds, Gpu, {"gpu"}, flat,
                 "D2H copy-engine busy time"},
    MetricFamily{M::GpuKernelBusyNs, "gpu_kernel_busy_ns_total", Counter, Nanoseconds, Gpu, {"gpu"},
                 flat, "compute-engine busy time"},
    MetricFamily{M::GpuCopyComputeOverlapNs, "gpu_copy_compute_overlap_ns_total", Counter,
                 Nanoseconds, Gpu, {"gpu"}, flat, "time copy and compute engines ran concurrently"},
    MetricFamily{M::GpuCopyComputeOverlapEfficiency, "gpu_copy_compute_overlap_efficiency", Gauge,
                 Ratio, Gpu, {"gpu"}, flat, "overlap / min(copy busy, kernel busy)"},
    MetricFamily{M::GpuStageBusyNs, "gpu_stage_busy_ns", Counter, Nanoseconds, Gpu, {"stage"}, flat,
                 "chunked-pipeline busy time per stage (h2d/kernel/d2h)"},
    MetricFamily{M::GpuCacheHits, "gpu_cache_hits_total", Counter, Count, Gpu, none, flat,
                 "GMemoryManager lookups served from device cache"},
    MetricFamily{M::GpuCacheMisses, "gpu_cache_misses_total", Counter, Count, Gpu, none, flat,
                 "lookups that missed"},
    MetricFamily{M::GpuCacheEvictions, "gpu_cache_evictions_total", Counter, Count, Gpu, none, flat,
                 "regions evicted to make space"},
    MetricFamily{M::GpuCacheCrossTenantEvictions, "gpu_cache_cross_tenant_evictions_total", Counter,
                 Count, Gpu, none, flat,
                 "entries evicted from an over-quota tenant to relieve another tenant's "
                 "pressure"},
    // ---- GStream scheduler ------------------------------------------------
    MetricFamily{M::GstreamSteals, "gstream_steals_total", Counter, Count, GStream, none, flat,
                 "GWorks stolen across stream queues"},
    MetricFamily{M::GstreamLocalityHits, "gstream_locality_hits_total", Counter, Count, GStream,
                 none, flat, "GWorks placed on a GPU already caching their input"},
    MetricFamily{M::GstreamLocalityMisses, "gstream_locality_misses_total", Counter, Count, GStream,
                 none, flat, "GWorks placed without cached input"},
    MetricFamily{M::GstreamChunkFallbacks, "gstream_chunk_fallbacks_total", Counter, Count, GStream,
                 none, flat, "chunked attempts that fell back to whole-batch"},
    MetricFamily{M::GstreamOomRetries, "gstream_oom_retries_total", Counter, Count, GStream, none,
                 flat, "GWorks retried after device OOM"},
    MetricFamily{M::GstreamQueueDepth, "gstream_queue_depth", Histogram, Count, GStream, none,
                 HistogramLayout{0.0, 256.0, 64},
                 "depth of the GPU queue a GWork joins when no stream is idle"},
    MetricFamily{M::GworkLatencyNs, "gwork_latency_ns", Histogram, Nanoseconds, GStream, none,
                 HistogramLayout{0.0, 5.0e7, 100}, "submit-to-complete GWork latency"},
    // ---- Network ----------------------------------------------------------
    MetricFamily{M::NetBytes, "net.bytes", Counter, Bytes, Net, none, flat, "payload bytes moved"},
    MetricFamily{M::NetRdmaBytes, "net.rdma_bytes", Counter, Bytes, Net, none, flat,
                 "bytes moved by one-sided remote writes over the HCA pipes"},
    MetricFamily{M::NetRdmaWrites, "net.rdma_writes", Counter, Count, Net, none, flat,
                 "one-sided remote writes issued"},
    MetricFamily{M::NetRdmaAtomics, "net.rdma_atomics", Counter, Count, Net, none, flat,
                 "remote fetch-add round trips (local fetch-adds are free and uncounted)"},
    MetricFamily{M::NetPipeBytes, "net_pipe_bytes_total", Counter, Bytes, Net, {"pipe"}, flat,
                 "per-pipe bytes moved"},
    MetricFamily{M::NetPipeBusyNs, "net_pipe_busy_ns_total", Counter, Nanoseconds, Net, {"pipe"},
                 flat, "per-pipe busy time"},
    MetricFamily{M::NetPipeQueueWaitNs, "net_pipe_queue_wait_ns_total", Counter, Nanoseconds, Net,
                 {"pipe"}, flat, "per-pipe FIFO queueing delay"},
    // ---- Shuffle ----------------------------------------------------------
    MetricFamily{M::ShuffleSessions, "shuffle.sessions", Counter, Count, Shuffle, none, flat,
                 "shuffle sessions opened"},
    MetricFamily{M::ShuffleBlocks, "shuffle.blocks", Counter, Count, Shuffle, none, flat,
                 "blocks sent"},
    MetricFamily{M::ShuffleBytes, "shuffle.bytes", Counter, Bytes, Shuffle, none, flat,
                 "bytes sent over the network"},
    MetricFamily{M::ShuffleCreditStalls, "shuffle.credit_stalls", Counter, Count, Shuffle, none,
                 flat, "sends stalled waiting for receiver credits"},
    MetricFamily{M::ShuffleSpillBytes, "shuffle.spill_bytes", Counter, Bytes, Shuffle, none, flat,
                 "bytes spilled"},
    MetricFamily{M::ShuffleUnspillBytes, "shuffle.unspill_bytes", Counter, Bytes, Shuffle, none,
                 flat, "spilled bytes read back"},
    MetricFamily{M::ShuffleTransferFaults, "shuffle.transfer_faults", Counter, Count, Shuffle, none,
                 flat, "injected transfer faults consumed"},
    MetricFamily{M::ShuffleTransferRetries, "shuffle.transfer_retries", Counter, Count, Shuffle,
                 none, flat, "block sends retried after a fault"},
    MetricFamily{M::ShuffleTransferAborts, "shuffle.transfer_aborts", Counter, Count, Shuffle, none,
                 flat, "block sends abandoned after max retries"},
    MetricFamily{M::ShuffleOneSidedHistograms, "shuffle.one_sided_histograms", Counter, Count,
                 Shuffle, none, flat, "per-destination histogram announcements (one_sided mode)"},
    MetricFamily{M::ShuffleOneSidedWrites, "shuffle.one_sided_writes", Counter, Count, Shuffle,
                 none, flat, "bulk one-sided bucket writes that landed"},
    MetricFamily{M::ShuffleOneSidedBytes, "shuffle.one_sided_bytes", Counter, Bytes, Shuffle, none,
                 flat, "bytes landed by one-sided writes"},
    // ---- Spill tier store: every family carries the tier ------------------
    MetricFamily{M::SpillOffloadBlocks, "spill_offload_blocks_total", Counter, Count, Spill,
                 {"tier"}, flat,
                 "blocks accepted by offload(), labelled by the tier reserved for them"},
    MetricFamily{M::SpillOffloadBytes, "spill_offload_bytes_total", Counter, Bytes, Spill, {"tier"},
                 flat, "raw (pre-codec) bytes accepted by offload()"},
    MetricFamily{M::SpillLandedBlocks, "spill_landed_blocks_total", Counter, Count, Spill, {"tier"},
                 flat, "blocks a spill worker finished writing to their tier"},
    MetricFamily{M::SpillStoredBytes, "spill_stored_bytes_total", Counter, Bytes, Spill, {"tier"},
                 flat, "post-codec bytes landed per tier (memory stores raw)"},
    MetricFamily{M::SpillTierHits, "spill_tier_hits_total", Counter, Count, Spill, {"tier"}, flat,
                 "fetches served, labelled by the tier that held the block"},
    MetricFamily{M::SpillPromotions, "spill_promotions_total", Counter, Count, Spill, {"tier"},
                 flat, "re-read blocks promoted up the ladder (the tier promoted to)"},
    MetricFamily{M::SpillProducerStalls, "spill_producer_stalls_total", Counter, Count, Spill,
                 {"tier"}, flat, "offloads that blocked because the node's spill queue was full"},
    MetricFamily{M::SpillProducerStallNs, "spill_producer_stall_ns_total", Counter, Nanoseconds,
                 Spill, {"tier"}, flat, "producer time lost to full-queue stalls"},
    MetricFamily{M::SpillFetchWaitNs, "spill_fetch_wait_ns_total", Counter, Nanoseconds, Spill,
                 {"tier"}, flat, "fetch time spent awaiting a block still in flight to its tier"},
    MetricFamily{M::CodecCompressNs, "codec_compress_ns_total", Counter, Nanoseconds, Spill,
                 {"tier"}, flat,
                 "virtual time spent compressing blocks (codec=lz, non-memory tiers)"},
    MetricFamily{M::CodecDecompressNs, "codec_decompress_ns_total", Counter, Nanoseconds, Spill,
                 {"tier"}, flat, "virtual time spent decompressing fetched blocks"},
    MetricFamily{M::CodecSavedBytes, "codec_saved_bytes_total", Counter, Bytes, Spill, {"tier"},
                 flat, "raw-minus-stored bytes the codec avoided writing"},
    // ---- JobService: every family carries the tenant ----------------------
    MetricFamily{M::ServiceSubmitted, "service_submitted_total", Counter, Count, Service,
                 {"tenant"}, flat, "jobs submitted (admitted + rejected)"},
    MetricFamily{M::ServiceRejected, "service_rejected_total", Counter, Count, Service, {"tenant"},
                 flat, "submissions rejected by the bounded admission queue"},
    MetricFamily{M::ServiceCancelled, "service_cancelled_total", Counter, Count, Service,
                 {"tenant"}, flat, "pending submissions withdrawn before dispatch"},
    MetricFamily{M::ServiceCompleted, "service_completed_total", Counter, Count, Service,
                 {"tenant"}, flat, "jobs run to completion"},
    MetricFamily{M::ServiceQueueWaitNs, "service_queue_wait_ns", Histogram, Nanoseconds, Service,
                 {"tenant"}, ten_seconds, "admission-to-dispatch queue wait"},
    MetricFamily{M::ServiceLatencyNs, "service_latency_ns", Histogram, Nanoseconds, Service,
                 {"tenant"}, ten_seconds, "admission-to-completion end-to-end latency"},
    // ---- Causal tracing & flight recorder ---------------------------------
    MetricFamily{M::TraceSpans, "trace_spans_total", Counter, Count, Trace, none, flat,
                 "causal spans recorded (counted even when the store is not retaining)"},
    MetricFamily{M::TraceSpanNs, "trace_span_ns_total", Counter, Nanoseconds, Trace, {"category"},
                 flat, "total span time per span category"},
    MetricFamily{M::FlightSpans, "flight_spans_total", Counter, Count, Trace, none, flat,
                 "spans streamed through the flight-recorder rings"},
    MetricFamily{M::FlightEvents, "flight_events_total", Counter, Count, Trace, none, flat,
                 "discrete flight events noted (cache evictions, retries, aborts)"},
    MetricFamily{M::FlightFaults, "flight_faults_total", Counter, Count, Trace, none, flat,
                 "faults noted (worker failures, injected transfer faults)"},
    MetricFamily{M::FlightDumps, "flight_dumps_total", Counter, Count, Trace, none, flat,
                 "flight dumps written (auto on first fault, or at exit via --flight-dump)"},
    // ---- Telemetry: every name carries a suffix matching its unit ---------
    MetricFamily{M::TelemetryPeriods, "telemetry_periods_total", Counter, Count, Telemetry, none,
                 flat, "sampling periods taken (Prometheus export only)"},
    MetricFamily{M::HealthEvents, "health_events_total", Counter, Count, Telemetry,
                 {"detector", "node"}, flat, "HealthEvents emitted (Prometheus export only)"},
    MetricFamily{M::TelemetryTaskBusyNs, "telemetry_task_busy_ns", SampledCounter, Nanoseconds,
                 Telemetry, none, flat,
                 "per-worker task busy time per period (the straggler signal)"},
    MetricFamily{M::TelemetryShuffleResidentBytes, "telemetry_shuffle_resident_bytes", SampledGauge,
                 Bytes, Telemetry, none, flat, "shuffle exchange-buffer residency per worker"},
    MetricFamily{M::TelemetrySpillQueueDepth, "telemetry_spill_queue_depth_total", SampledGauge,
                 Count, Telemetry, none, flat, "spill blocks queued per worker"},
    MetricFamily{M::TelemetryShuffleInFlight, "telemetry_shuffle_in_flight_total", SampledGauge,
                 Count, Telemetry, none, flat, "shuffle blocks in flight cluster-wide (master)"},
    MetricFamily{M::TelemetryGpuCacheUsedBytes, "telemetry_gpu_cache_used_bytes", SampledGauge,
                 Bytes, Telemetry, none, flat, "GPU cache-region occupancy per worker"},
    MetricFamily{M::TelemetryGstreamQueueDepth, "telemetry_gstream_queue_depth_total", SampledGauge,
                 Count, Telemetry, none, flat, "pending GWorks per worker"},
    MetricFamily{M::TelemetryTenantQuotaUsedRatio, "telemetry_tenant_quota_used_ratio",
                 SampledGauge, Ratio, Telemetry, {"tenant"}, flat,
                 "fraction of a tenant's GPU cache quota in use per worker"},
    MetricFamily{M::TelemetryServicePending, "telemetry_service_pending_total", SampledGauge, Count,
                 Telemetry, {"tenant"}, flat, "per-tenant admission-queue depth (master)"},
    // ---- Bench report gauges ----------------------------------------------
    MetricFamily{M::BenchCases, "bench_cases_total", Counter, Count, Bench, none, flat,
                 "cases folded into a bench binary's report"},
    MetricFamily{M::MultitenantJobsPerSecond, "multitenant_jobs_per_second", Gauge, PerSecond,
                 Bench, none, flat, "completed jobs per virtual second"},
    MetricFamily{M::MultitenantWeightShare, "multitenant_weight_share", Gauge, Ratio, Bench,
                 {"tenant"}, flat, "tenant weight / total weight"},
    MetricFamily{M::MultitenantThroughputShare, "multitenant_throughput_share", Gauge, Ratio, Bench,
                 {"tenant"}, flat, "tenant completions / all completions"},
    MetricFamily{M::MultitenantCacheShare, "multitenant_cache_share", Gauge, Ratio, Bench,
                 {"tenant"}, flat, "tenant GPU-cache inserts / all inserts"},
    MetricFamily{M::MultitenantP99LatencyS, "multitenant_p99_latency_s", Gauge, Seconds, Bench,
                 {"tenant"}, flat, "tenant p99 end-to-end job latency"},
    MetricFamily{M::HealthStragglerDetectMs, "health_straggler_detect_ms", Gauge, Milliseconds,
                 Bench, none, flat, "virtual time the straggler detector fired"},
    MetricFamily{M::HealthStragglerNode, "health_straggler_node", Gauge, None, Bench, none, flat,
                 "node the straggler detector flagged"},
    MetricFamily{M::HealthStragglerScore, "health_straggler_score", Gauge, None, Bench, none, flat,
                 "straggler score at detection"},
    MetricFamily{M::HealthSloDetectMs, "health_slo_detect_ms", Gauge, Milliseconds, Bench, none,
                 flat, "virtual time the SLO burn-rate detector fired"},
    MetricFamily{M::HealthSloBurnRate, "health_slo_burn_rate", Gauge, None, Bench, none, flat,
                 "burn rate at detection"},
    MetricFamily{M::HealthEventsEmitted, "health_events_emitted", Gauge, Count, Bench, none, flat,
                 "HealthEvents emitted by the scenario"},
    MetricFamily{M::TelemetryScenarioPeriods, "telemetry_scenario_periods", Gauge, Count, Bench,
                 none, flat, "sampling periods in the detection scenario"},
    MetricFamily{M::AblationShuffleSeconds, "ablation_shuffle_seconds", Gauge, Seconds, Bench,
                 {"dist", "mode"}, flat, "PageRank makespan per shuffle mode"},
    MetricFamily{M::AblationShuffleChecksum, "ablation_shuffle_checksum", Gauge, None, Bench,
                 {"dist", "mode"}, flat, "output checksum per shuffle mode"},
    MetricFamily{M::AblationPipelineSeconds, "ablation_pipeline_seconds", Gauge, Seconds, Bench,
                 {"chunk"}, flat, "makespan per chunk size"},
    MetricFamily{M::AblationPipelineOverlapEfficiency, "ablation_pipeline_overlap_efficiency",
                 Gauge, Ratio, Bench, {"chunk"}, flat,
                 "copy/compute overlap efficiency per chunk size"},
    MetricFamily{M::AblationPipelineChunksPerWork, "ablation_pipeline_chunks_per_work", Gauge,
                 Count, Bench, {"chunk"}, flat, "chunks per GWork per chunk size"},
    MetricFamily{M::AblationPipelineGain, "ablation_pipeline_gain", Gauge, None, Bench, {"chunk"},
                 flat, "monolithic / chunked makespan"},
    MetricFamily{M::AblationSpillSeconds, "ablation_spill_seconds", Gauge, Seconds, Bench,
                 {"codec", "path"}, flat, "PageRank makespan per spill path and codec"},
    MetricFamily{M::AblationSpillStallSeconds, "ablation_spill_stall_seconds", Gauge, Seconds,
                 Bench, {"codec", "path"}, flat,
                 "spill time on the critical path per spill path and codec"},
    MetricFamily{M::AblationSpillChecksum, "ablation_spill_checksum", Gauge, None, Bench,
                 {"codec", "path"}, flat, "output checksum per spill path and codec"},
  };
}();
// clang-format on

/// The family behind `m` (O(1): the table is indexed by the enum).
constexpr const MetricFamily& metric_family(Metric m) {
  return kMetricFamilies[static_cast<std::size_t>(m)];
}

/// Aborts with a GFLINK_CHECK failure naming the family, its kind and its
/// label keys next to what the caller registered.
[[noreturn]] void metric_registration_failed(const MetricFamily& f, MetricKind as,
                                             const std::string& got_keys);

/// The registration check, run once when a series is created: the family
/// must be of kind `as` with exactly the label-key set. No allocation and no
/// table scan on the passing path.
template <typename LabelRange>
void check_metric_registration(const MetricFamily& f, MetricKind as, const LabelRange& labels) {
  if (f.kind == as && f.keys.matches(labels)) return;
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
