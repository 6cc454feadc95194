// The Open MPI Java bindings baseline ("Open MPI-J" in the paper): a
// profile of the one binding core in jhpc/mv2j.
//
// MVAPICH2-J adopted this Java API, so both bindings are the same classes:
// ompij::Comm and ompij::Win are mv2j::Comm and mv2j::Win, offset
// overloads and sendRecv included. What makes a job Open MPI-J is that
// ompij::run launched it. Its Env carries the Open MPI-J profile, which
// the core reads where the paper's evaluation turns on the difference
// (mv2j::Profile has the full list):
//
//   * Java arrays are staged through a freshly malloc'd native region on
//     EVERY call (Get/Set<Type>ArrayRegion, sized by the message): a copy
//     in, and a copy back for receive-like operations. No staging pool,
//     so no Java arrays with non-blocking point-to-point operations
//     (iSend/iRecv throw UnsupportedOperationError — why the paper's
//     bandwidth figures have no "Open MPI-J arrays" series) and no derived
//     datatypes on arrays (InvalidArgumentError).
//   * ByteBuffer send/recv and Win data movement pay an extra handle check
//     per call (the baseline's per-call object-graph marshalling).
//   * The native library underneath is the `basic` collective suite —
//     flat linear algorithms — which is where the paper's 6.2x/2.76x
//     collective gaps come from.
#pragma once

#include <functional>

#include "jhpc/mv2j/env.hpp"
#include "jhpc/mv2j/win.hpp"

namespace jhpc::ompij {

using minijvm::ByteBuffer;
using minijvm::JArray;
using minijvm::JavaPrimitive;
using mv2j::ANY_SOURCE;
using mv2j::ANY_TAG;
using mv2j::Comm;
using mv2j::Datatype;
using mv2j::Errhandler;
using mv2j::ERRORS_ARE_FATAL;
using mv2j::ERRORS_RETURN;
using mv2j::kind_of;
using mv2j::LOCK_EXCLUSIVE;
using mv2j::LOCK_SHARED;
using mv2j::LockType;
using mv2j::Op;
using mv2j::Request;
using mv2j::Status;
using mv2j::Win;

/// Open MPI-J job options.
struct RunOptions : mv2j::RunOptionsCore {
  /// Suite kOmpiBasic — these bindings run on "Open MPI".
  minimpi::UniverseConfig universe_config() const {
    return RunOptionsCore::universe_config(mv2j::Profile::kOmpij);
  }
};

/// One Open MPI-J rank's environment: a JVM plus COMM_WORLD. No buffer
/// pool — this baseline does not have one.
class Env : public mv2j::EnvCore {
 public:
  Env(minimpi::Comm& native_world, const RunOptions& options);
};

/// Launch an Open MPI-J job.
void run(const RunOptions& options, const std::function<void(Env&)>& rank_main);

}  // namespace jhpc::ompij
