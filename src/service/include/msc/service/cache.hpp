#ifndef MSC_SERVICE_CACHE_HPP
#define MSC_SERVICE_CACHE_HPP

#include <string>
#include <vector>

#include "msc/driver/pipeline.hpp"
#include "msc/support/single_flight.hpp"

namespace msc::service {

/// One finished front-half: the compiled program, its conversion, and the
/// SimdProgram the codegen pass produced. Immutable once published —
/// concurrent run requests build their own machines over the shared
/// program, exactly like the co-scheduler does.
struct CachedConversion {
  driver::Converted converted;
  /// The resolved conversion-stage pass list that produced it (response
  /// metadata; also part of the cache key).
  std::vector<std::string> pipeline;
};

/// Canonical cache key: the program text itself plus the resolved pipeline
/// and the conversion options that are not passes. Two requests spelling
/// the same compile differently (explicit pipeline vs stage shorthands)
/// canonicalize to the same key; two different sources never share one.
std::string conversion_cache_key(const std::string& source,
                                 const std::vector<std::string>& pipeline,
                                 bool adaptive, bool prune,
                                 std::size_t max_meta_states);

/// Process-wide conversion cache shared by every daemon worker. Concurrent
/// identical compiles are single-miss, and compile/explosion errors reach
/// every waiting requester without being retained.
using ConversionCache = support::SingleFlightLru<std::string, CachedConversion>;

}  // namespace msc::service

#endif  // MSC_SERVICE_CACHE_HPP
