// Public value types of the Java bindings: Datatype, Op, Status.
//
// MVAPICH2-J adopts the Open MPI Java bindings API (paper Section II-C):
// camelCase method names, MPI.INT-style datatype constants, no `offset`
// argument on communication primitives, direct ByteBuffers alongside Java
// arrays. The C++ mirror keeps those names so the bound API is
// recognisable; everything beneath speaks the substrate's snake_case.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "jhpc/minijvm/jtypes.hpp"
#include "jhpc/minimpi/datatype.hpp"
#include "jhpc/minimpi/op.hpp"
#include "jhpc/minimpi/types.hpp"

namespace jhpc::mv2j {

/// A datatype: one of the basic constants (MPI.BYTE ... MPI.DOUBLE) or a
/// derived type built with contiguous()/vector()/hvector()/indexed()/
/// structType().
///
/// Derived datatypes work on both binding paths. The Java-array path
/// packs the scattered elements through the buffering layer onto
/// consecutive staging-buffer locations (paper Section IV-B); Open MPI-J
/// has no buffering layer and rejects them on arrays. The direct
/// ByteBuffer path hands the raw pointer plus the committed flat layout
/// to the substrate, which gathers the runs straight into the transport
/// slab (docs/API.md "Derived datatypes") — no user-side staging copy.
class Datatype {
 public:
  explicit Datatype(minimpi::Datatype native) : native_(std::move(native)) {}

  /// MPI_Type_contiguous: `count` consecutive elements of `base`.
  static Datatype contiguous(int count, const Datatype& base) {
    return Datatype(minimpi::Datatype::contiguous(count, base.native_));
  }
  /// MPI_Type_vector: `count` blocks of `blocklen` base elements, block
  /// starts `stride` base elements apart.
  static Datatype vector(int count, int blocklen, int stride,
                         const Datatype& base) {
    return Datatype(
        minimpi::Datatype::vector(count, blocklen, stride, base.native_));
  }
  /// MPI_Type_create_hvector: like vector(), but the stride is in bytes.
  static Datatype hvector(int count, int blocklen, std::ptrdiff_t strideBytes,
                          const Datatype& base) {
    return Datatype(minimpi::Datatype::hvector(count, blocklen, strideBytes,
                                               base.native_));
  }
  /// MPI_Type_indexed: irregular blocks at explicit displacements.
  static Datatype indexed(std::span<const int> blocklens,
                          std::span<const int> displs,
                          const Datatype& base) {
    return Datatype(
        minimpi::Datatype::indexed(blocklens, displs, base.native_));
  }
  /// MPI_Type_create_struct: field i is `blocklens[i]` elements of
  /// `fields[i]` at byte displacement `displsBytes[i]`.
  static Datatype structType(std::span<const int> blocklens,
                             std::span<const std::ptrdiff_t> displsBytes,
                             std::span<const Datatype> fields) {
    std::vector<minimpi::Datatype> natives;
    natives.reserve(fields.size());
    for (const Datatype& f : fields) natives.push_back(f.native_);
    return Datatype(
        minimpi::Datatype::struct_type(blocklens, displsBytes, natives));
  }

  /// Payload bytes per element.
  std::size_t size() const { return native_.size(); }
  /// Memory span per element (differs from size() for strided types).
  std::size_t extent() const { return native_.extent(); }
  bool isBasic() const { return native_.is_basic(); }
  /// True when every leaf is the same basic kind (reductions need this).
  bool uniformLeaf() const { return native_.uniform_leaf(); }
  /// Basic kind for basic types (reductions require these).
  minimpi::BasicKind kind() const { return native_.kind(); }
  /// The primitive type at the leaves (what the backing array must be).
  minimpi::BasicKind leafKind() const { return native_.leaf_kind(); }

  const minimpi::Datatype& native() const { return native_; }
  bool operator==(const Datatype& other) const {
    return native_ == other.native_;
  }

 private:
  minimpi::Datatype native_;
};

inline const Datatype BYTE{minimpi::Datatype::byte_type()};
inline const Datatype BOOLEAN{minimpi::Datatype::boolean_type()};
inline const Datatype CHAR{minimpi::Datatype::char_type()};
inline const Datatype SHORT{minimpi::Datatype::short_type()};
inline const Datatype INT{minimpi::Datatype::int_type()};
inline const Datatype LONG{minimpi::Datatype::long_type()};
inline const Datatype FLOAT{minimpi::Datatype::float_type()};
inline const Datatype DOUBLE{minimpi::Datatype::double_type()};

/// The Java primitive type corresponding to a Datatype constant.
template <minijvm::JavaPrimitive T>
constexpr minimpi::BasicKind kind_of() {
  if constexpr (std::is_same_v<T, minijvm::jbyte>)
    return minimpi::BasicKind::kByte;
  else if constexpr (std::is_same_v<T, minijvm::jboolean>)
    return minimpi::BasicKind::kBoolean;
  else if constexpr (std::is_same_v<T, minijvm::jchar>)
    return minimpi::BasicKind::kChar;
  else if constexpr (std::is_same_v<T, minijvm::jshort>)
    return minimpi::BasicKind::kShort;
  else if constexpr (std::is_same_v<T, minijvm::jint>)
    return minimpi::BasicKind::kInt;
  else if constexpr (std::is_same_v<T, minijvm::jlong>)
    return minimpi::BasicKind::kLong;
  else if constexpr (std::is_same_v<T, minijvm::jfloat>)
    return minimpi::BasicKind::kFloat;
  else
    return minimpi::BasicKind::kDouble;
}

/// A reduction operator constant (MPI.SUM ...).
class Op {
 public:
  constexpr explicit Op(minimpi::ReduceOp op) : op_(op) {}
  constexpr minimpi::ReduceOp native() const { return op_; }
  constexpr bool operator==(const Op&) const = default;

 private:
  minimpi::ReduceOp op_;
};

inline constexpr Op SUM{minimpi::ReduceOp::kSum};
inline constexpr Op PROD{minimpi::ReduceOp::kProd};
inline constexpr Op MIN{minimpi::ReduceOp::kMin};
inline constexpr Op MAX{minimpi::ReduceOp::kMax};
inline constexpr Op LAND{minimpi::ReduceOp::kLand};
inline constexpr Op LOR{minimpi::ReduceOp::kLor};
inline constexpr Op BAND{minimpi::ReduceOp::kBand};
inline constexpr Op BOR{minimpi::ReduceOp::kBor};
inline constexpr Op BXOR{minimpi::ReduceOp::kBxor};

/// Wildcards re-exported under their Java names.
inline constexpr int ANY_SOURCE = minimpi::kAnySource;
inline constexpr int ANY_TAG = minimpi::kAnyTag;

/// Error handlers (MPI.ERRORS_ARE_FATAL / MPI.ERRORS_RETURN), re-exported
/// from the substrate. Under ERRORS_ARE_FATAL (the default) a rank
/// failure aborts the whole job; under ERRORS_RETURN it raises
/// minimpi::RankFailedError / CommRevokedError from the affected calls,
/// which the ULFM methods below (revoke/shrink/agree) recover from.
using Errhandler = minimpi::Errhandler;
inline constexpr Errhandler ERRORS_ARE_FATAL =
    minimpi::Errhandler::kErrorsAreFatal;
inline constexpr Errhandler ERRORS_RETURN =
    minimpi::Errhandler::kErrorsReturn;

/// Receive completion info (mpi.Status).
class Status {
 public:
  Status() = default;
  explicit Status(const minimpi::Status& native) : native_(native) {}
  int getSource() const { return native_.source; }
  int getTag() const { return native_.tag; }
  /// Element count of the received message for `type` (MPI_Get_count).
  int getCount(const Datatype& type) const {
    return static_cast<int>(native_.count_bytes / type.size());
  }
  std::size_t bytes() const { return native_.count_bytes; }

 private:
  minimpi::Status native_;
};

}  // namespace jhpc::mv2j
