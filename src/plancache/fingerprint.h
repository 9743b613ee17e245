// Copyright 2026 mpqopt authors.
//
// Query fingerprinting for the plan cache (see plancache/plan_cache.h).
//
// A fingerprint is the canonical byte encoding of everything that can
// change which plan the optimizer returns: the query itself (tables with
// their cardinalities, attribute counts and names; predicates with their
// selectivities) plus the plan-affecting fields of MpqOptions. It has
// its own compact canonical form, not the query's wire serialization:
// counts, indices and name lengths are LEB128 varints; doubles that are
// integers or reciprocals of integers (cardinalities, selectivities)
// are varints too, other doubles raw bytes; the option enums share one
// byte; and attribute domains are left out because the optimizer reads
// only how many attributes a table has. Callers validate the query
// before probing, so a query with invalid domains never reaches a valid
// query's entry. Execution-only knobs (backend handle, thread caps, the
// network model) are deliberately excluded — they change how fast a plan
// is found, never which plan is found.
//
// The 128-bit hash is only an index accelerator: the cache keeps the
// full key bytes and compares them on every probe, so even a forced
// hash collision can never serve the wrong plan (asserted by
// tests/plan_cache_test.cc).

#ifndef MPQOPT_PLANCACHE_FINGERPRINT_H_
#define MPQOPT_PLANCACHE_FINGERPRINT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "catalog/query.h"
#include "mpq/mpq.h"

namespace mpqopt {

/// Cache key: canonical bytes plus a 128-bit hash of them.
struct PlanCacheKey {
  /// Canonical encoding of (query, plan-affecting options). Retained in
  /// full so that cache probes can reject hash collisions exactly.
  std::vector<uint8_t> bytes;
  uint64_t hash_hi = 0;
  uint64_t hash_lo = 0;

  /// Full-key equality: hashes first (cheap reject), then the bytes.
  bool operator==(const PlanCacheKey& other) const {
    return hash_hi == other.hash_hi && hash_lo == other.hash_lo &&
           bytes == other.bytes;
  }
  bool operator!=(const PlanCacheKey& other) const {
    return !(*this == other);
  }
};

/// Strong 64-bit mixing hash over a byte span (xxHash64-style avalanche;
/// public-domain construction). Different seeds give independent streams,
/// which is how the 128-bit fingerprint hash is assembled.
uint64_t HashBytes64(const uint8_t* data, size_t size, uint64_t seed);

/// Builds the canonical fingerprint of one (query, options) pair.
/// Deterministic: the same inputs produce byte-identical keys on every
/// little-endian platform (see tests/serialize_determinism_test.cc).
PlanCacheKey FingerprintQuery(const Query& query, const MpqOptions& options);

/// Reads back the (table name, cardinality) pairs fingerprint bytes hold —
/// the statistics the key's plan was costed with — and calls
/// visit(name, cardinality) on each in table order until it returns
/// true. Returns whether some call did. The plan cache's statistics-
/// sensitive invalidation reads its entries' tables this way, so they
/// are stored once, in the key. Bytes of another fingerprint version
/// visit nothing; truncated or malformed bytes visit nothing past the
/// last whole table, and no read goes past the end.
bool AnyKeyTable(
    std::span<const uint8_t> key_bytes,
    const std::function<bool(std::string_view name, double cardinality)>&
        visit);

}  // namespace mpqopt

#endif  // MPQOPT_PLANCACHE_FINGERPRINT_H_
