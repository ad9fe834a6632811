#include "core/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/crc32.hpp"

namespace odin::core {

namespace {

constexpr char kMagic[8] = {'O', 'D', 'I', 'N', 'C', 'K', 'P', 'T'};
/// Frame: magic(8) + version(4) + sequence(8) + payload size(8) + crc(4).
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8 + 4;
/// Refuse absurd payloads before allocating (a corrupt size field must not
/// drive a multi-gigabyte read).
constexpr std::uint64_t kMaxPayload = 1ull << 30;

void encode_entries(const std::vector<policy::ReplayBuffer::Entry>& entries,
                    common::ByteWriter& out) {
  out.u64(entries.size());
  for (const auto& e : entries) {
    for (double v : e.features.to_array()) out.f64(v);
    out.i32(e.best.rows);
    out.i32(e.best.cols);
  }
}

bool decode_entries(common::ByteReader& in,
                    std::vector<policy::ReplayBuffer::Entry>& entries) {
  std::uint64_t count = 0;
  if (!common::vec_count(in, count)) return false;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    policy::ReplayBuffer::Entry e;
    e.features.layer_position = in.f64();
    e.features.sparsity = in.f64();
    e.features.kernel = in.f64();
    e.features.log_time = in.f64();
    e.best.rows = in.i32();
    e.best.cols = in.i32();
    entries.push_back(e);
  }
  return in.ok();
}

// One put/get overload per ODIN_TENANT_STATS field type; the tenant codec
// below is generated from that table, in its (wire) order. get returns
// false on a corrupt count; a short read shows in the reader's ok().
void put(common::ByteWriter& out, const std::string& v) { out.str(v); }
void put(common::ByteWriter& out, int v) { out.i32(v); }
void put(common::ByteWriter& out, long long v) { out.i64(v); }
void put(common::ByteWriter& out, double v) { out.f64(v); }
void put(common::ByteWriter& out, const common::EnergyLatency& v) {
  out.f64(v.energy_j);
  out.f64(v.latency_s);
}
void put(common::ByteWriter& out, const std::vector<double>& v) {
  common::encode_vec(v, out, [&](double x) { out.f64(x); });
}
void put(common::ByteWriter& out, const SojournSketch& v) {
  encode_sojourn_sketch(v, out);
}

bool get(common::ByteReader& in, std::string& v) {
  v = in.str();
  return true;
}
bool get(common::ByteReader& in, int& v) {
  v = in.i32();
  return true;
}
bool get(common::ByteReader& in, long long& v) {
  v = in.i64();
  return true;
}
bool get(common::ByteReader& in, double& v) {
  v = in.f64();
  return true;
}
bool get(common::ByteReader& in, common::EnergyLatency& v) {
  v.energy_j = in.f64();
  v.latency_s = in.f64();
  return true;
}
bool get(common::ByteReader& in, std::vector<double>& v) {
  std::uint64_t samples = 0;
  if (!common::vec_count(in, samples)) return false;
  v.reserve(samples);
  for (std::uint64_t i = 0; i < samples; ++i) v.push_back(in.f64());
  return true;
}
bool get(common::ByteReader& in, SojournSketch& v) {
  return decode_sojourn_sketch(in, v);
}

void encode_tenant(const TenantStats& t, common::ByteWriter& out) {
#define ODIN_PUT(type, field, total) put(out, t.field);
  ODIN_TENANT_STATS(ODIN_PUT)
#undef ODIN_PUT
}

std::optional<TenantStats> decode_tenant(common::ByteReader& in) {
  TenantStats t;
#define ODIN_GET(type, field, total) \
  if (!get(in, t.field)) return std::nullopt;
  ODIN_TENANT_STATS(ODIN_GET)
#undef ODIN_GET
  if (!in.ok()) return std::nullopt;
  return t;
}

void encode_controller(const ControllerSnapshot& c, common::ByteWriter& out) {
  out.f64(c.programmed_at_s);
  out.i32(c.reprogram_count);
  out.i32(c.update_count);
  out.f64(c.health_fraction);
  out.boolean(c.degraded);
  out.f64(c.eta_scale);
  out.i32(c.retry_count);
  out.i32(c.degraded_runs);
  out.i32(c.updates_accepted);
  out.i32(c.updates_rejected);
  out.i32(c.updates_rolled_back);
  out.i32(c.probation_left);
  out.i64(c.probation_mismatches);
  out.i64(c.probation_layers);
  out.f64(c.pre_update_rate);
  out.f64(c.mismatch_rate_ema);
  encode_entries(c.buffer_entries, out);
  encode_entries(c.buffer_quarantine, out);
  encode_entries(c.last_update_batch, out);
  out.u64(c.buffer_dropped);
  out.u64(c.buffer_quarantine_hits);
  out.str(c.policy_blob);
  out.str(c.last_good_blob);
}

bool decode_controller(common::ByteReader& in, ControllerSnapshot& c) {
  c.programmed_at_s = in.f64();
  c.reprogram_count = in.i32();
  c.update_count = in.i32();
  c.health_fraction = in.f64();
  c.degraded = in.boolean();
  c.eta_scale = in.f64();
  c.retry_count = in.i32();
  c.degraded_runs = in.i32();
  c.updates_accepted = in.i32();
  c.updates_rejected = in.i32();
  c.updates_rolled_back = in.i32();
  c.probation_left = in.i32();
  c.probation_mismatches = in.i64();
  c.probation_layers = in.i64();
  c.pre_update_rate = in.f64();
  c.mismatch_rate_ema = in.f64();
  if (!decode_entries(in, c.buffer_entries)) return false;
  if (!decode_entries(in, c.buffer_quarantine)) return false;
  if (!decode_entries(in, c.last_update_batch)) return false;
  c.buffer_dropped = in.u64();
  c.buffer_quarantine_hits = in.u64();
  c.policy_blob = in.str();
  c.last_good_blob = in.str();
  return in.ok();
}

std::string slot_path(const std::string& base, int slot) {
  return base + (slot == 0 ? ".a" : ".b");
}

/// Frame checksum over sequence + payload size + payload, so a bit flip in
/// the header's mutable fields (not just the payload) is detected too.
std::uint32_t frame_crc(std::uint64_t sequence, const std::string& payload) {
  common::ByteWriter meta;
  meta.u64(sequence);
  meta.u64(payload.size());
  const std::uint32_t seed =
      common::crc32(meta.bytes().data(), meta.bytes().size());
  return common::crc32(payload.data(), payload.size(), seed);
}

/// Header fields of one framed file; nullopt when the frame is invalid.
struct Frame {
  std::uint64_t sequence = 0;
  std::string payload;
};

std::optional<Frame> read_frame(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  char header[kHeaderSize];
  if (!in.read(header, static_cast<std::streamsize>(kHeaderSize)))
    return std::nullopt;
  common::ByteReader hr(std::string_view(header, kHeaderSize));
  char magic[8];
  for (char& m : magic) m = static_cast<char>(hr.u8());
  if (std::string_view(magic, 8) != std::string_view(kMagic, 8))
    return std::nullopt;
  // Only this build's payload version decodes: a checkpoint is crash-resume
  // state, not an archive, so an older or newer layout is refused rather
  // than guessed at.
  if (hr.u32() != kCheckpointVersion) return std::nullopt;
  Frame frame;
  frame.sequence = hr.u64();
  const std::uint64_t size = hr.u64();
  const std::uint32_t crc = hr.u32();
  if (size > kMaxPayload) return std::nullopt;
  frame.payload.resize(size);
  if (!in.read(frame.payload.data(), static_cast<std::streamsize>(size)))
    return std::nullopt;  // torn write: payload shorter than the header says
  if (frame_crc(frame.sequence, frame.payload) != crc)
    return std::nullopt;  // bit rot / partial overwrite
  return frame;
}

bool write_frame(const std::string& path, std::uint64_t sequence,
                 const std::string& payload) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    common::ByteWriter header;
    for (char m : kMagic) header.u8(static_cast<std::uint8_t>(m));
    header.u32(kCheckpointVersion);
    header.u64(sequence);
    header.u64(payload.size());
    header.u32(frame_crc(sequence, payload));
    out.write(header.bytes().data(),
              static_cast<std::streamsize>(header.bytes().size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) return false;
  }
#if defined(__unix__) || defined(__APPLE__)
  // Flush file contents to stable storage before the rename publishes it;
  // a crash between rename and data reaching disk must not produce a slot
  // whose header is durable but whose payload is not (the CRC would catch
  // it, but the previous checkpoint would be lost for nothing).
  if (std::FILE* f = std::fopen(tmp.c_str(), "rb")) {
    fsync(fileno(f));
    std::fclose(f);
  }
#endif
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// One table of the payload: a count bounded by the bytes left
/// (common::vec_count) and by 2^16 entries, then that many elements through
/// dec(), which returns the element or, where one can fail, an optional of
/// it. False on a bad count or a failed element.
template <typename T, typename Fn>
bool decode_table(common::ByteReader& in, std::vector<T>& v, Fn dec) {
  std::uint64_t n = 0;
  if (!common::vec_count(in, n) || n > (1u << 16)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<decltype(dec()), T>) {
      v.push_back(dec());
    } else {
      auto x = dec();
      if (!x.has_value()) return false;
      v.push_back(std::move(*x));
    }
  }
  return true;
}

}  // namespace

void encode_breaker(const CircuitBreaker::Snapshot& b,
                    common::ByteWriter& out) {
  out.i32(b.state);
  out.u64(b.window_bits);
  out.i32(b.window_fill);
  out.i32(b.hold_left);
  out.i32(b.hold_runs);
  out.i32(b.opens);
  out.i32(b.reopens);
  out.i32(b.probes);
  out.i32(b.closes);
}

CircuitBreaker::Snapshot decode_breaker(common::ByteReader& in) {
  CircuitBreaker::Snapshot b;
  b.state = in.i32();
  b.window_bits = in.u64();
  b.window_fill = in.i32();
  b.hold_left = in.i32();
  b.hold_runs = in.i32();
  b.opens = in.i32();
  b.reopens = in.i32();
  b.probes = in.i32();
  b.closes = in.i32();
  return b;
}

void encode_checkpoint(const ServingCheckpoint& ckpt,
                       common::ByteWriter& out) {
  out.u64(ckpt.segment);
  out.u64(ckpt.next_run);
  out.i32(ckpt.segments);
  out.i32(ckpt.horizon_runs);
  out.f64(ckpt.t_start_s);
  out.f64(ckpt.t_end_s);
  out.u64(ckpt.tenant_names.size());
  for (const std::string& name : ckpt.tenant_names) out.str(name);
  out.str(ckpt.result.label);
  out.u64(ckpt.result.tenants.size());
  for (const TenantStats& t : ckpt.result.tenants) encode_tenant(t, out);
  put(out, ckpt.result.programming);
  out.i32(ckpt.result.switches);
  out.i32(ckpt.result.policy_updates);
  encode_controller(ckpt.controller, out);
  out.boolean(ckpt.has_faults);
  out.i32(ckpt.wear.campaigns);
  out.i32(ckpt.wear.stuck_cells);
  out.i32(ckpt.wear.failed_wordlines);
  out.i32(ckpt.wear.failed_bitlines);
  out.u64(ckpt.health_maps.size());
  for (const reram::CrossbarHealth& h : ckpt.health_maps)
    reram::encode_health(h, out);
  // Resilience serving state.
  out.boolean(ckpt.has_resilience);
  out.i32(ckpt.shed_policy);
  out.u64(ckpt.queue_capacity);
  out.f64(ckpt.busy_until_s);
  common::encode_vec(ckpt.pending_runs, out,
                     [&](std::uint64_t j) { out.u64(j); });
  common::encode_vec(ckpt.breakers, out,
                     [&](const CircuitBreaker::Snapshot& b) {
                       encode_breaker(b, out);
                     });
  common::encode_vec(ckpt.fallback_ous, out, [&](const ou::OuConfig& c) {
    out.i32(c.rows);
    out.i32(c.cols);
  });
  // Batch-formation fingerprint.
  out.boolean(ckpt.batching_enabled);
  out.i32(ckpt.batch_cap);
  // Wear-leveling state, including the controller's wear counters.
  out.boolean(ckpt.leveling_enabled);
  out.i32(ckpt.leveling_spare_rows);
  out.f64(ckpt.leveling_wear_budget);
  out.i32(ckpt.wear.crossbars_retired);
  out.i32(ckpt.wear_seg_base_rows_remapped);
  out.i32(ckpt.wear_seg_base_crossbars_retired);
  out.i64(ckpt.wear_seg_base_writes_leveled);
  out.i32(ckpt.controller.wear_deferred_reprograms);
  out.i32(ckpt.controller.retired_seen);
  out.u64(ckpt.wear_maps.size());
  for (const reram::WearMap& m : ckpt.wear_maps)
    reram::encode_wear_map(m, out);
  // Fleet surface.
  out.i32(ckpt.fleet_shards);
  out.i32(ckpt.fleet_shard_index);
  out.boolean(ckpt.has_service_models);
  out.u64(ckpt.service_models.size());
  for (const TenantServiceModel& m : ckpt.service_models) {
    out.f64(m.noc_extra.energy_j);
    out.f64(m.noc_extra.latency_s);
    out.f64(m.pipeline_overlap);
  }
  // Scenario surface.
  out.u64(ckpt.sojourn_cap);
  out.boolean(ckpt.has_scenario);
  encode_campaign_state(ckpt.scenario, out);
  // Cluster surface.
  out.boolean(ckpt.has_cluster);
  encode_cluster_state(ckpt.cluster, out);
}

std::optional<ServingCheckpoint> decode_checkpoint(common::ByteReader& in) {
  ServingCheckpoint ckpt;
  ckpt.segment = in.u64();
  ckpt.next_run = in.u64();
  ckpt.segments = in.i32();
  ckpt.horizon_runs = in.i32();
  ckpt.t_start_s = in.f64();
  ckpt.t_end_s = in.f64();
  if (!decode_table(in, ckpt.tenant_names, [&] { return in.str(); }))
    return std::nullopt;
  ckpt.result.label = in.str();
  if (!decode_table(in, ckpt.result.tenants, [&] { return decode_tenant(in); }))
    return std::nullopt;
  get(in, ckpt.result.programming);
  ckpt.result.switches = in.i32();
  ckpt.result.policy_updates = in.i32();
  ckpt.result.resumed = true;
  if (!decode_controller(in, ckpt.controller)) return std::nullopt;
  ckpt.has_faults = in.boolean();
  ckpt.wear.campaigns = in.i32();
  ckpt.wear.stuck_cells = in.i32();
  ckpt.wear.failed_wordlines = in.i32();
  ckpt.wear.failed_bitlines = in.i32();
  if (!decode_table(in, ckpt.health_maps,
                    [&] { return reram::decode_health(in); }))
    return std::nullopt;
  ckpt.has_resilience = in.boolean();
  ckpt.shed_policy = in.i32();
  ckpt.queue_capacity = in.u64();
  ckpt.busy_until_s = in.f64();
  if (!common::decode_vec(in, ckpt.pending_runs, [&] { return in.u64(); }) ||
      !decode_table(in, ckpt.breakers,
                    [&] { return decode_breaker(in); }) ||
      !decode_table(in, ckpt.fallback_ous, [&] {
        ou::OuConfig c;
        c.rows = in.i32();
        c.cols = in.i32();
        return c;
      }))
    return std::nullopt;
  ckpt.batching_enabled = in.boolean();
  ckpt.batch_cap = in.i32();
  ckpt.leveling_enabled = in.boolean();
  ckpt.leveling_spare_rows = in.i32();
  ckpt.leveling_wear_budget = in.f64();
  ckpt.wear.crossbars_retired = in.i32();
  ckpt.wear_seg_base_rows_remapped = in.i32();
  ckpt.wear_seg_base_crossbars_retired = in.i32();
  ckpt.wear_seg_base_writes_leveled = in.i64();
  ckpt.controller.wear_deferred_reprograms = in.i32();
  ckpt.controller.retired_seen = in.i32();
  if (!decode_table(in, ckpt.wear_maps,
                    [&] { return reram::decode_wear_map(in); }))
    return std::nullopt;
  ckpt.fleet_shards = in.i32();
  ckpt.fleet_shard_index = in.i32();
  ckpt.has_service_models = in.boolean();
  if (!decode_table(in, ckpt.service_models, [&] {
        TenantServiceModel m;
        m.noc_extra.energy_j = in.f64();
        m.noc_extra.latency_s = in.f64();
        m.pipeline_overlap = in.f64();
        return m;
      }))
    return std::nullopt;
  ckpt.sojourn_cap = in.u64();
  ckpt.has_scenario = in.boolean();
  auto scenario = decode_campaign_state(in);
  if (!scenario.has_value()) return std::nullopt;
  ckpt.scenario = std::move(*scenario);
  ckpt.has_cluster = in.boolean();
  auto cluster = decode_cluster_state(in);
  if (!cluster.has_value()) return std::nullopt;
  ckpt.cluster = std::move(*cluster);
  if (!in.ok()) return std::nullopt;
  return ckpt;
}

CheckpointWriter::CheckpointWriter(std::string base_path)
    : base_(std::move(base_path)) {
  // Continue the sequence across restarts and aim the first write at the
  // slot that is stale (or invalid) so the newest good checkpoint is never
  // the one being overwritten.
  std::uint64_t seq[2] = {0, 0};
  bool valid[2] = {false, false};
  for (int slot = 0; slot < 2; ++slot)
    if (const auto frame = read_frame(slot_path(base_, slot))) {
      seq[slot] = frame->sequence;
      valid[slot] = true;
    }
  sequence_ = std::max(seq[0], seq[1]);
  if (valid[0] && (!valid[1] || seq[0] > seq[1]))
    next_slot_ = 1;
  else
    next_slot_ = 0;
}

bool CheckpointWriter::write(ServingCheckpoint& ckpt) {
  ckpt.sequence = sequence_ + 1;
  common::ByteWriter payload;
  encode_checkpoint(ckpt, payload);
  if (!write_frame(slot_path(base_, next_slot_), ckpt.sequence,
                   payload.bytes()))
    return false;
  sequence_ = ckpt.sequence;
  next_slot_ = 1 - next_slot_;
  return true;
}

std::optional<ServingCheckpoint> load_checkpoint_file(
    const std::string& path) {
  const auto frame = read_frame(path);
  if (!frame.has_value()) return std::nullopt;
  common::ByteReader reader(frame->payload);
  auto ckpt = decode_checkpoint(reader);
  if (ckpt.has_value()) ckpt->sequence = frame->sequence;
  return ckpt;
}

std::optional<ServingCheckpoint> load_latest_checkpoint(
    const std::string& base_path) {
  std::optional<ServingCheckpoint> best;
  for (int slot = 0; slot < 2; ++slot) {
    auto ckpt = load_checkpoint_file(slot_path(base_path, slot));
    if (ckpt.has_value() &&
        (!best.has_value() || ckpt->sequence > best->sequence))
      best = std::move(ckpt);
  }
  return best;
}

}  // namespace odin::core
