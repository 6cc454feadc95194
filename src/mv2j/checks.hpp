// Argument checks and size helpers shared by the binding core's
// ByteBuffer, array and one-sided paths (private to this library).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "jhpc/mv2j/types.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::mv2j::detail {

/// Payload bytes carried by `count` elements of `type`.
inline std::size_t payload_bytes(int count, const Datatype& type) {
  JHPC_REQUIRE(count >= 0, "negative element count");
  return static_cast<std::size_t>(count) * type.size();
}

/// Collectives with no typed substrate form yet: basic datatypes only.
inline std::size_t basic_only(int count, const Datatype& type,
                              const char* what) {
  JHPC_REQUIRE(count >= 0, "negative element count");
  if (!type.isBasic()) {
    throw UnsupportedOperationError(
        std::string(what) +
        ": derived datatypes are not supported on this collective (typed "
        "forms exist for point-to-point and the non-vectored collectives)");
  }
  return static_cast<std::size_t>(count) * type.size();
}

/// Element counts/displacements scaled to bytes (`el` bytes each).
inline std::vector<std::size_t> to_bytes(std::span<const int> in,
                                         std::size_t el) {
  std::vector<std::size_t> out;
  out.reserve(in.size());
  for (int v : in) {
    JHPC_REQUIRE(v >= 0, "negative count/displacement");
    out.push_back(static_cast<std::size_t>(v) * el);
  }
  return out;
}

/// End of the furthest block a counts/offsets layout touches.
inline std::size_t span_end(const std::vector<std::size_t>& counts,
                            const std::vector<std::size_t>& offs) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < counts.size(); ++i)
    end = std::max(end, offs[i] + counts[i]);
  return end;
}

}  // namespace jhpc::mv2j::detail
