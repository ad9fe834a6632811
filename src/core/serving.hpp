// Multi-tenant serving simulation — the deployment scenario that motivates
// Odin (Sec. I: "an OU configuration computed offline for a known DNN model
// at design time may not be optimal for unseen DNNs at runtime").
//
// A PIM accelerator in production does not run one network forever: new
// models are deployed over time. The ServingSimulator rotates inference
// traffic across a set of workloads along the drift horizon; one policy
// serves them all, carrying what it learned from each tenant to the next
// (every layer is featurized the same way, so knowledge transfers). The
// comparison baselines run each tenant at a fixed homogeneous OU.
//
// The device keeps drifting across tenant switches — switching DNNs remaps
// weights onto (re)programmed crossbars, which also resets the drift clock
// for the incoming tenant's arrays and is charged as a programming event.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/resilience.hpp"
#include "core/sketch.hpp"

namespace odin::core {

/// Periodic crash-safe checkpointing of the Odin serving walk (see
/// core/checkpoint.hpp for the file format and durability contract).
struct CheckpointConfig {
  /// Base path of the double-buffered pair (`<base>.a` / `<base>.b`).
  /// Empty disables checkpointing.
  std::string base_path;
  /// Write a checkpoint after every N inference runs (>= 1).
  int every_runs = 25;
};

/// Per-tenant service-time model the fleet scheduler derives from its
/// placement: NoC transit charged on every serve, and the steady-state
/// inter-layer pipeline overlap applied to back-to-back inferences. Empty
/// `ServingConfig::service_models` (the default, and always the case for a
/// single-shard fleet) leaves the serving walk bitwise identical to the
/// unmodeled loop.
struct TenantServiceModel {
  /// Inter-PE activation traffic per inference (arch::SystemMapping's
  /// noc_per_inference for this tenant's shard placement).
  common::EnergyLatency noc_extra;
  /// Steady-state service time as a fraction of unpipelined latency
  /// (arch::InterLayerPipeline::overlap_factor); applies only when the
  /// request arrives while the device is busy (the pipeline is primed).
  double pipeline_overlap = 1.0;
};

struct ServingConfig {
  HorizonConfig horizon{};
  /// How many contiguous segments the horizon is divided into; tenants are
  /// assigned round-robin (segments >= tenant count uses each at least
  /// once).
  int segments = 6;
  OdinConfig odin{};
  CheckpointConfig checkpoint{};
  /// Crash-simulation hook: when > 0, serve at most this many inference
  /// runs in this invocation (a final checkpoint is forced when
  /// checkpointing is enabled) and return the partial result. 0 = serve
  /// the whole horizon.
  int max_runs = 0;
  /// Deadline/admission/breaker/watchdog layer (core/resilience.hpp).
  /// Disabled by default: the serving walk is then bit-identical to the
  /// pre-resilience behaviour.
  ResilienceConfig resilience{};
  /// Fleet surface (core/fleet.hpp fills these; empty/defaults outside a
  /// fleet). One entry per tenant, parallel to the `tenants` argument.
  std::vector<TenantServiceModel> service_models;
  int fleet_shards = 1;       ///< total shards in the owning fleet
  int fleet_shard_index = 0;  ///< this loop's shard id in [0, fleet_shards)
  /// Explicit arrival/drift schedule: when non-empty, replaces the
  /// logspace run_schedule(horizon) and must hold horizon.runs ascending
  /// times. The fleet passes each shard the global schedule's slices for
  /// its member segments so a tenant serves at the same drift times
  /// regardless of how the fleet is sharded.
  std::vector<double> schedule;
  /// Explicit per-segment run counts paired with `schedule`: when
  /// non-empty, replaces the equal split of segment_bounds (one entry per
  /// segment, summing to horizon.runs).
  std::vector<std::size_t> segment_sizes;
};

/// Every TenantStats field, listed once in checkpoint payload wire order as
/// X(type, name, total). `total` is `sum` for fields ServingResult sums
/// across tenants as total_<name>(), `none` otherwise. The table generates
/// the struct fields, those accessors and the per-tenant checkpoint codec,
/// so adding a counter is one line here.
#define ODIN_TENANT_STATS(X)                                                  \
  X(std::string, name, none)                                                  \
  X(int, runs, sum)                                                           \
  X(int, reprograms, none) /* drift-triggered only (switch programming      \
                              separate) */                                    \
  X(int, mismatches, sum)                                                     \
  X(int, retries, sum)       /* extra write-verify attempts on this tenant */ \
  X(int, degraded_runs, sum) /* runs this tenant served in degraded mode */   \
  /* Update-guardrail surface (zero while the guard is disabled). */          \
  X(int, updates_accepted, sum)                                               \
  X(int, updates_rejected, sum)                                               \
  X(int, updates_rolled_back, sum)                                            \
  /* Replay-buffer observability: examples dropped at saturation and        \
     entries held in quarantine while serving this tenant. */                 \
  X(long long, buffer_dropped, sum)                                           \
  X(long long, buffer_quarantined, sum)                                       \
  X(common::EnergyLatency, inference, none)                                   \
  X(common::EnergyLatency, reprogram, none)                                   \
  /* Resilience surface (all zero while resilience is disabled). A "run"    \
     below is one arrival of this tenant's traffic; every arrival is served \
     exactly once, either fully (controller + search) or by the degraded    \
     fallback (last-known-good homogeneous OU, no search, no reprogram). */   \
  X(double, slo_s, none)   /* latency SLO in force (0 = none/disabled) */     \
  X(int, shed_runs, sum)   /* admission-control sheds (queue overflow) */     \
  X(int, breaker_open_runs, sum) /* fallback serves while the breaker held */ \
  X(int, deadline_misses, sum) /* full serves whose sojourn overran the SLO */\
  X(int, deferred_reprograms, sum) /* campaigns pushed out by the deadline */ \
  X(int, deadline_stopped_retries, none) /* retry loops cut short by the    \
                                            budget */                         \
  X(int, searches_truncated, sum) /* layer searches stopped at best-so-far */ \
  X(int, breaker_opens, sum)      /* Closed -> Open trips */                  \
  X(int, breaker_reopens, sum)    /* failed half-open probes */               \
  X(int, breaker_probes, sum)     /* half-open probe runs granted */          \
  X(int, breaker_closes, sum)     /* recoveries back to Closed */             \
  X(int, watchdog_stalls, sum)    /* hung runs cancelled by the watchdog */   \
  /* Per-served-run sojourn (queue wait + service latency), in arrival      \
     order; feeds the percentile reporting below. Retention is bounded by   \
     ResilienceConfig::sojourn_sample_cap (0 = keep all). */                  \
  X(std::vector<double>, sojourn_s, none)                                     \
  /* Batch-formation surface (all zero while batching is disabled). A       \
     batch is one pipelined pass over >= 1 queued same-tenant runs. */        \
  X(int, batches_formed, sum)   /* pipelined passes (incl. size-1 batches) */ \
  X(int, batch_members, sum)    /* runs served inside those passes */         \
  X(int, max_batch, none)       /* largest batch this tenant saw */           \
  X(int, batch_slo_capped, sum) /* batches stopped short by a member's      \
                                   slack */                                   \
  /* Wear-leveling surface (all zero without a leveling-enabled injector).  \
     Deltas of the shared device's leveling counters accrued while this     \
     tenant's segments were being served. */                                  \
  X(int, rows_remapped, sum)      /* worn rows absorbed by the spare pool */  \
  X(int, crossbars_retired, sum)  /* pool exhaustions (tenant migrated) */    \
  X(long long, writes_leveled, sum) /* row writes redirected off-identity */  \
  X(int, wear_deferred_reprograms, sum) /* campaigns deferred while         \
                                           wear-hot */                        \
  /* Gauge, not a delta: spare rows left in the device's current pool after \
     this tenant's most recent segment. */                                    \
  X(int, spares_remaining, none)                                              \
  /* Fleet surface (zero outside a multi-shard fleet): wall-clock busy time \
     this tenant held its shard's device, and runs that were served at the  \
     pipelined (overlapped) rate because the pipeline was primed. */          \
  X(double, service_s, sum)                                                   \
  X(int, pipelined_runs, sum)                                                 \
  /* Streaming percentile sketch fed by *every* sojourn sample, including   \
     those the cap dropped from the vector. */                                \
  X(SojournSketch, sojourn_sketch, none)                                      \
  X(long long, sojourn_dropped, none) /* samples the cap kept out of        \
                                         sojourn_s (0 while uncapped) */      \
  /* Cluster failover surface (zero outside a multi-mesh cluster —          \
     core/cluster.hpp). */                                                    \
  X(int, failovers, none)            /* evacuations off a lost mesh */        \
  X(int, restored_stale, none)  /* restores from a replica missing serves */  \
  X(long long, lost_runs, none)      /* serves newer than the restored      \
                                        replica */                            \
  X(long long, outage_dropped, none) /* arrivals dropped while              \
                                        dark/restoring */                     \
  X(double, rpo_s, none)             /* worst replica staleness at failover */\
  X(double, rto_s, none)             /* worst outage-to-ready recovery time */

/// Expands its arguments for `sum` rows of ODIN_TENANT_STATS only.
#define ODIN_IF_SUM_sum(...) __VA_ARGS__
#define ODIN_IF_SUM_none(...)

struct TenantStats {
#define ODIN_TENANT_FIELD(type, name, total) type name{};
  ODIN_TENANT_STATS(ODIN_TENANT_FIELD)
#undef ODIN_TENANT_FIELD

  /// Record one sojourn sample under retention cap `cap` (0 = unbounded):
  /// always feeds the sketch, appends to the vector only below the cap.
  void record_sojourn(double sojourn, std::size_t cap);

  /// Nearest-rank percentile of the sojourn samples (p in [0, 100]).
  /// Exact while every sample was retained; the sketch estimate once the
  /// cap dropped any.
  double sojourn_percentile(double p) const;
  /// Deadline slack at the same rank: slo_s - sojourn_percentile(p)
  /// (negative = the SLO was missed at that rank; 0 when no SLO was set).
  double slack_percentile(double p) const;

  bool operator==(const TenantStats&) const = default;
};

struct ServingResult {
  std::string label;
  std::vector<TenantStats> tenants;
  common::EnergyLatency programming;  ///< tenant-switch (re)programming
  int switches = 0;
  int policy_updates = 0;
  /// True when this result was produced by resuming from a checkpoint
  /// (totals include the pre-crash prefix).
  bool resumed = false;

  common::EnergyLatency total() const noexcept;
  double total_edp() const noexcept { return total().edp(); }
  /// total_<name>() for every `sum` field of ODIN_TENANT_STATS: the field
  /// summed over tenants (zero while its surface is disabled).
#define ODIN_TOTAL_DECL(type, name, total) \
  ODIN_IF_SUM_##total(type total_##name() const noexcept;)
  ODIN_TENANT_STATS(ODIN_TOTAL_DECL)
#undef ODIN_TOTAL_DECL
  /// Largest batch formed anywhere; 0 when batching never ran.
  int max_batch() const noexcept;
  /// Mean members per formed batch (the occupancy figure; 0 when none).
  double mean_batch_occupancy() const noexcept;
  /// Spare rows left in the device's current pool (the smallest gauge any
  /// served tenant observed; 0 while leveling is disabled).
  int spares_remaining() const noexcept;
};

/// Serve `tenants` (non-owning; must outlive the call) with one adapting
/// Odin policy. `initial_policy` is typically offline-bootstrapped.
/// `faults` (caller-owned, optional) is the shared device wear state: every
/// tenant-switch programming and every drift-triggered reprogram advances
/// it, and each segment's controller consumes its measured health.
ServingResult serve_with_odin(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    policy::OuPolicy initial_policy, const ServingConfig& config = {},
    reram::FaultInjector* faults = nullptr);

/// Serve the same traffic with a fixed homogeneous OU configuration. With
/// `faults` the segment walk runs sequentially (wear is shared state);
/// without it the arms are independent and run concurrently.
ServingResult serve_with_homogeneous(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    ou::OuConfig ou, const ServingConfig& config = {},
    reram::FaultInjector* faults = nullptr);

struct ServingCheckpoint;  // core/checkpoint.hpp

/// Continue an interrupted serve_with_odin from `ckpt` (typically obtained
/// via load_latest_checkpoint). `config` and `tenants` must match the
/// original invocation (validated against the checkpoint's fingerprint) and
/// `faults`, when used originally, must be a freshly constructed injector
/// with the original seed/schedule — its wear is replayed and verified.
/// Returns nullopt when the checkpoint does not match this configuration.
std::optional<ServingResult> resume_with_odin(
    std::vector<const ou::MappedModel*> tenants,
    const ou::NonIdealityModel& nonideal, const ou::OuCostModel& cost,
    const ServingCheckpoint& ckpt, const ServingConfig& config = {},
    reram::FaultInjector* faults = nullptr);

}  // namespace odin::core
