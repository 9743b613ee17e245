// Copyright 2026 mpqopt authors.

#include "plancache/fingerprint.h"

#include "common/serialize.h"

namespace mpqopt {
namespace {

inline uint64_t Rotl64(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

// xxHash64 primes.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

inline uint64_t ReadU64LE(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t ReadU32LE(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl64(acc, 31);
  return acc * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  acc ^= Round(0, val);
  return acc * kPrime1 + kPrime4;
}

/// Version tag of the fingerprint encoding. Bump whenever the canonical
/// byte layout below (or Query::Serialize) changes so that persisted or
/// cross-process fingerprints from older layouts can never alias.
constexpr uint8_t kFingerprintVersion = 1;

}  // namespace

uint64_t HashBytes64(const uint8_t* data, size_t size, uint64_t seed) {
  const uint8_t* p = data;
  const uint8_t* const end = data + size;
  uint64_t h;
  if (size >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    const uint8_t* const limit = end - 32;
    do {
      v1 = Round(v1, ReadU64LE(p));
      v2 = Round(v2, ReadU64LE(p + 8));
      v3 = Round(v3, ReadU64LE(p + 16));
      v4 = Round(v4, ReadU64LE(p + 24));
      p += 32;
    } while (p <= limit);
    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<uint64_t>(size);
  while (p + 8 <= end) {
    h ^= Round(0, ReadU64LE(p));
    h = Rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(ReadU32LE(p)) * kPrime1;
    h = Rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = Rotl64(h, 11) * kPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

PlanCacheKey FingerprintQuery(const Query& query, const MpqOptions& options) {
  ByteWriter writer;
  writer.WriteU8(kFingerprintVersion);
  // The query: tables, statistics, predicates, selectivities — the exact
  // deterministic wire encoding the workers receive.
  query.Serialize(&writer);
  // Plan-affecting options. num_workers is included because the merged
  // multi-objective frontier depends on how the plan space was
  // partitioned; max_memo_entries because it decides success vs. failure
  // (only successes are cached, but a run that would fail fresh must not
  // be served from a larger-budget entry).
  writer.WriteU8(static_cast<uint8_t>(options.space));
  writer.WriteU8(static_cast<uint8_t>(options.objective));
  writer.WriteBool(options.interesting_orders);
  writer.WriteDouble(options.alpha);
  writer.WriteU64(options.num_workers);
  writer.WriteDouble(options.cost_options.block_size);
  writer.WriteDouble(options.cost_options.hash_constant);
  writer.WriteDouble(options.cost_options.output_cost_factor);
  writer.WriteDouble(options.cost_options.sorted_scan_factor);
  writer.WriteU64(static_cast<uint64_t>(options.max_memo_entries));

  PlanCacheKey key;
  key.bytes = writer.Release();
  key.hash_hi = HashBytes64(key.bytes.data(), key.bytes.size(),
                            /*seed=*/0x6d70716f70743031ULL);
  key.hash_lo = HashBytes64(key.bytes.data(), key.bytes.size(),
                            /*seed=*/0x706c616e63616368ULL);
  return key;
}

bool AnyKeyTable(
    const PlanCacheKey& key,
    const std::function<bool(std::string_view name, double cardinality)>&
        visit) {
  // The layout FingerprintQuery writes: version, then Query::Serialize,
  // whose tables come first as (cardinality, u32 attribute count, the
  // domains, u32 name length, name bytes).
  ByteReader reader(key.bytes);
  uint8_t version = 0;
  uint32_t num_tables = 0;
  if (!reader.ReadU8(&version).ok() || version != kFingerprintVersion ||
      !reader.ReadU32(&num_tables).ok()) {
    return false;
  }
  for (uint32_t t = 0; t < num_tables; ++t) {
    double cardinality = 0;
    uint32_t num_attrs = 0;
    uint32_t name_size = 0;
    if (!reader.ReadDouble(&cardinality).ok() ||
        !reader.ReadU32(&num_attrs).ok() ||
        reader.remaining() / sizeof(double) < num_attrs) {
      return false;
    }
    reader.Advance(num_attrs * sizeof(double));
    if (!reader.ReadU32(&name_size).ok() || reader.remaining() < name_size) {
      return false;
    }
    const std::string_view name(
        reinterpret_cast<const char*>(reader.cursor()), name_size);
    reader.Advance(name_size);
    if (visit(name, cardinality)) return true;
  }
  return false;
}

}  // namespace mpqopt
