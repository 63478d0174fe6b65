#ifndef MSC_TOOLS_INT_ARG_HPP
#define MSC_TOOLS_INT_ARG_HPP

// Strict integer flag parsing shared by the command-line tools (mscc,
// mscli), so a malformed number is a usage error in both rather than a
// silently different request.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace msc::tools {

/// The value of integer flag `flag`: all of `text` must be a decimal
/// integer in [lo, hi]. Anything else (garbage, trailing characters, out
/// of range) prints "<tool>: <flag> expects ..." and exits with the
/// status of `usage()`, the tool's usage printer (exit 2).
inline std::int64_t int_arg(const char* tool, int (*usage)(),
                            const std::string& flag, const std::string& text,
                            std::int64_t lo, std::int64_t hi = INT64_MAX) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  if (auto [p, ec] = std::from_chars(text.data(), end, v);
      ec == std::errc{} && p == end && v >= lo && v <= hi)
    return v;
  std::fprintf(stderr, "%s: %s expects an integer in [%lld, %lld], got '%s'\n",
               tool, flag.c_str(), static_cast<long long>(lo),
               static_cast<long long>(hi), text.c_str());
  std::exit(usage());
}

}  // namespace msc::tools

#endif  // MSC_TOOLS_INT_ARG_HPP
