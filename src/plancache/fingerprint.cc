// Copyright 2026 mpqopt authors.

#include "plancache/fingerprint.h"

#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/macros.h"

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
/// byte layout below changes so that persisted or cross-process
/// fingerprints from older layouts can never alias.
constexpr uint8_t kFingerprintVersion = 2;

/// Appends `v` as unsigned LEB128: seven bits per byte, low group first,
/// the high bit set on every byte but the last. Never overlong, so each
/// value has exactly one encoding.
void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Integers below 2^53 convert to double and back exactly.
constexpr double kExactIntegers = 9007199254740992.0;

/// Appends `v` in the key's compact double form: one LEB128 value whose
/// two low bits are a tag. An integral value n in [0, 2^53) is n << 2
/// (cardinalities); the reciprocal of such an n is n << 2 | 1
/// (selectivities 1 / domain); any other value is the tag 2 followed by
/// its 8 raw bytes. The choice depends only on the bits of `v`, so every
/// value has exactly one encoding (-0.0 and NaNs go raw).
void PutDouble(double v, std::vector<uint8_t>* out) {
  if (v >= 0 && v < kExactIntegers && !std::signbit(v) &&
      v == std::floor(v)) {
    PutVarint(static_cast<uint64_t>(v) << 2, out);
    return;
  }
  if (v > 0 && v < 1) {
    const double n = std::round(1.0 / v);
    if (n < kExactIntegers && 1.0 / n == v) {
      PutVarint(static_cast<uint64_t>(n) << 2 | 1, out);
      return;
    }
  }
  out->push_back(2);
  uint8_t bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  out->insert(out->end(), bytes, bytes + sizeof(v));
}

/// Bounds-checked cursor over key bytes; every read fails, rather than
/// reading past `end`, on a truncated key.
struct KeyCursor {
  const uint8_t* p;
  const uint8_t* end;

  bool Varint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64 && p != end; shift += 7) {
      const uint8_t byte = *p++;
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;
  }
  /// Reads a value PutDouble wrote.
  bool Double(double* out) {
    uint64_t v = 0;
    if (!Varint(&v)) return false;
    switch (v & 3) {
      case 0:
        *out = static_cast<double>(v >> 2);
        return true;
      case 1:
        *out = 1.0 / static_cast<double>(v >> 2);
        return true;
      case 2:
        if (v != 2 || end - p < static_cast<ptrdiff_t>(sizeof(*out))) {
          return false;
        }
        std::memcpy(out, p, sizeof(*out));
        p += sizeof(*out);
        return true;
      default:
        return false;
    }
  }
};

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
  // The canonical form holds exactly what the optimizer reads. Counts,
  // indices and name lengths are LEB128; cardinalities, selectivities and
  // the cost constants are compact doubles (PutDouble). A table
  // contributes its attribute count but not the domains: the optimizer
  // reads only how many attributes a table has (selectivities carry the
  // domains' effect).
  PlanCacheKey key;
  std::vector<uint8_t>& out = key.bytes;
  out.reserve(64 + 16 * query.tables().size() +
              8 * query.predicates().size());
  out.push_back(kFingerprintVersion);
  PutVarint(query.tables().size(), &out);
  for (const TableInfo& t : query.tables()) {
    PutDouble(t.cardinality, &out);
    PutVarint(t.attribute_domains.size(), &out);
    PutVarint(t.name.size(), &out);
    out.insert(out.end(), t.name.begin(), t.name.end());
  }
  PutVarint(query.predicates().size(), &out);
  for (const JoinPredicate& p : query.predicates()) {
    PutVarint(static_cast<uint32_t>(p.left_table), &out);
    PutVarint(static_cast<uint32_t>(p.left_attribute), &out);
    PutVarint(static_cast<uint32_t>(p.right_table), &out);
    PutVarint(static_cast<uint32_t>(p.right_attribute), &out);
    PutDouble(p.selectivity, &out);
  }
  // Plan-affecting options. num_workers is included because the merged
  // multi-objective frontier depends on how the plan space was
  // partitioned; max_memo_entries because it decides success vs. failure
  // (only successes are cached, but a run that would fail fresh must not
  // be served from a larger-budget entry). The space, objective and
  // interesting-orders flag share one byte.
  const auto space = static_cast<uint8_t>(options.space);
  const auto objective = static_cast<uint8_t>(options.objective);
  MPQOPT_DCHECK(space < 4 && objective < 4);
  out.push_back(static_cast<uint8_t>(
      space | (objective << 2) | ((options.interesting_orders ? 1 : 0) << 4)));
  PutDouble(options.alpha, &out);
  PutVarint(options.num_workers, &out);
  PutDouble(options.cost_options.block_size, &out);
  PutDouble(options.cost_options.hash_constant, &out);
  PutDouble(options.cost_options.output_cost_factor, &out);
  PutDouble(options.cost_options.sorted_scan_factor, &out);
  PutVarint(static_cast<uint64_t>(options.max_memo_entries), &out);

  key.hash_hi = HashBytes64(out.data(), out.size(),
                            /*seed=*/0x6d70716f70743031ULL);
  key.hash_lo = HashBytes64(out.data(), out.size(),
                            /*seed=*/0x706c616e63616368ULL);
  return key;
}

bool AnyKeyTable(
    std::span<const uint8_t> key_bytes,
    const std::function<bool(std::string_view name, double cardinality)>&
        visit) {
  // The layout FingerprintQuery writes: the version byte, the table
  // count, then per table (cardinality, attribute count, name length,
  // name bytes).
  KeyCursor in{key_bytes.data(), key_bytes.data() + key_bytes.size()};
  uint64_t num_tables = 0;
  if (in.p == in.end || *in.p++ != kFingerprintVersion ||
      !in.Varint(&num_tables)) {
    return false;
  }
  for (uint64_t t = 0; t < num_tables; ++t) {
    double cardinality = 0;
    uint64_t num_attrs = 0;
    uint64_t name_size = 0;
    if (!in.Double(&cardinality) || !in.Varint(&num_attrs) ||
        !in.Varint(&name_size) ||
        static_cast<uint64_t>(in.end - in.p) < name_size) {
      return false;
    }
    const std::string_view name(reinterpret_cast<const char*>(in.p),
                                name_size);
    in.p += name_size;
    if (visit(name, cardinality)) return true;
  }
  return false;
}

}  // namespace mpqopt
