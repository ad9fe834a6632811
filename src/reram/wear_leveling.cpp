#include "reram/wear_leveling.hpp"

#include <algorithm>


namespace odin::reram {

int WearLevelingParams::resolved_spare_rows() const {
  if (spare_rows <= 0) return WearLevelingParams{}.spare_rows;
  return std::min(spare_rows, 512);
}

double WearLevelingParams::resolved_wear_budget() const {
  const int percent = wear_budget_percent <= 0
                          ? WearLevelingParams{}.wear_budget_percent
                          : std::min(wear_budget_percent, 100);
  return static_cast<double>(percent) / 100.0;
}

void encode_wear_map(const WearMap& map, common::ByteWriter& out) {
  out.i32(map.rows);
  out.i32(map.spare_rows);
  out.i64(map.rotation);
  out.i64(map.rows_remapped);
  out.i64(map.writes_leveled);
  out.u64(map.row_writes.size());
  for (std::int64_t w : map.row_writes) out.i64(w);
  out.u64(map.retired.size());
  for (std::uint8_t r : map.retired) out.boolean(r != 0);
  out.u64(map.remap.size());
  for (std::int32_t p : map.remap) out.i32(p);
}

std::optional<WearMap> decode_wear_map(common::ByteReader& in) {
  WearMap map;
  map.rows = in.i32();
  map.spare_rows = in.i32();
  map.rotation = in.i64();
  map.rows_remapped = in.i64();
  map.writes_leveled = in.i64();
  std::uint64_t writes = 0;
  if (!common::vec_count(in, writes)) return std::nullopt;
  map.row_writes.reserve(writes);
  for (std::uint64_t i = 0; i < writes; ++i) map.row_writes.push_back(in.i64());
  std::uint64_t retired = 0;
  if (!common::vec_count(in, retired)) return std::nullopt;
  map.retired.reserve(retired);
  for (std::uint64_t i = 0; i < retired; ++i)
    map.retired.push_back(in.boolean() ? 1 : 0);
  std::uint64_t remap = 0;
  if (!common::vec_count(in, remap)) return std::nullopt;
  map.remap.reserve(remap);
  for (std::uint64_t i = 0; i < remap; ++i) map.remap.push_back(in.i32());
  if (!in.ok()) return std::nullopt;
  return map;
}

}  // namespace odin::reram
