// Deterministic fault injection for the Las Vegas failure paths.
//
// The pipeline's failure events have probability <= 3n^2/|S| -- far too rare
// to exercise the recovery code by luck.  This harness lets a test force any
// zero-check site to report its failure deterministically, keyed by
// stage x attempt x site-index:
//
//   kp::util::fault::ScopedFault fi(util::Stage::kProjection, /*attempt=*/1);
//   auto res = core::kp_solve(f, a, b, prng);   // attempt 1 fails, 2 recovers
//
// Sites are the existing division/zero-check points of the charpoly,
// Newton-on-Toeplitz, Gohberg-Semencul, and preconditioner paths, wrapped as
//
//   if (f.is_zero(p[0]) || KP_FAULT_POINT(util::Stage::kNewtonToeplitz)) ...
//
// so an injected fault takes exactly the branch a real unlucky draw would.
//
// Determinism: the per-stage site counters and the current attempt are
// thread-local, and every site in the library executes on the submitting
// thread (pool workers only run data-parallel kernels, which contain no
// zero-check sites), so triggering is bit-identical for 1..N pool workers.
//
// Overhead: compiled out entirely when KP_FAULT_INJECTION is not defined
// (KP_FAULT_POINT folds to `false`); when compiled in but no fault is armed,
// a site costs one relaxed atomic load.  Arming/disarming is mutex-guarded
// and thread-safe.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/status.h"

#if defined(KP_FAULT_INJECTION) && KP_FAULT_INJECTION
#define KP_FAULT_INJECTION_ENABLED 1
#else
#define KP_FAULT_INJECTION_ENABLED 0
#endif

namespace kp::util::fault {

#if KP_FAULT_INJECTION_ENABLED

namespace detail {

/// Per-thread trigger context: the Las Vegas attempt currently executing and
/// how many times each stage's sites have been hit within it.
struct ThreadState {
  int attempt = 0;
  std::array<std::uint32_t, kStageCount> hits{};
};

inline ThreadState& tls() {
  thread_local ThreadState state;
  return state;
}

struct Armed {
  std::uint64_t id = 0;
  Stage stage = Stage::kNone;
  int attempt = -1;     ///< -1: any attempt
  int site_index = -1;  ///< -1: any hit of the stage within the attempt
  bool one_shot = true;
  std::uint32_t fired = 0;
};

/// Global registry of armed faults.  The hot path (nothing armed) is a
/// single relaxed atomic load; the armed path takes the mutex.
class Registry {
 public:
  static Registry& instance() {
    static Registry reg;
    return reg;
  }

  std::uint64_t arm(Stage stage, int attempt, int site_index, bool one_shot) {
    std::lock_guard<std::mutex> lk(m_);
    Armed a;
    a.id = next_id_++;
    a.stage = stage;
    a.attempt = attempt;
    a.site_index = site_index;
    a.one_shot = one_shot;
    armed_.push_back(a);
    active_.store(static_cast<int>(armed_.size()), std::memory_order_relaxed);
    return a.id;
  }

  /// Removes the fault; returns how many times it fired.
  std::uint32_t disarm(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(m_);
    std::uint32_t fired = 0;
    for (std::size_t i = 0; i < armed_.size(); ++i) {
      if (armed_[i].id == id) {
        fired = armed_[i].fired;
        armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    active_.store(static_cast<int>(armed_.size()), std::memory_order_relaxed);
    return fired;
  }

  std::uint32_t fired(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(m_);
    for (const auto& a : armed_) {
      if (a.id == id) return a.fired;
    }
    return 0;
  }

  bool active() const { return active_.load(std::memory_order_relaxed) != 0; }

  /// Site entry: counts the hit and reports whether an armed fault matches.
  bool should_fail(Stage stage) {
    auto& t = tls();
    const std::uint32_t index = t.hits[static_cast<int>(stage)]++;
    std::lock_guard<std::mutex> lk(m_);
    for (auto& a : armed_) {
      if (a.stage != stage) continue;
      if (a.attempt >= 0 && a.attempt != t.attempt) continue;
      if (a.site_index >= 0 &&
          static_cast<std::uint32_t>(a.site_index) != index) {
        continue;
      }
      if (a.one_shot && a.fired > 0) continue;
      ++a.fired;
      return true;
    }
    return false;
  }

 private:
  std::mutex m_;
  std::vector<Armed> armed_;
  std::atomic<int> active_{0};
  std::uint64_t next_id_ = 1;
};

}  // namespace detail

/// Site predicate -- use through KP_FAULT_POINT so disabled builds fold the
/// call away entirely.
inline bool should_fail(Stage stage) {
  auto& reg = detail::Registry::instance();
  if (!reg.active()) return false;
  return reg.should_fail(stage);
}

/// Marks the extent of one Las Vegas attempt on this thread: sets the
/// attempt index and zeroes the per-stage site counters, restoring the
/// previous context on destruction (attempt loops may nest, e.g. field_lift
/// around kp_solve).
class AttemptScope {
 public:
  explicit AttemptScope(int attempt) : saved_(detail::tls()) {
    detail::tls().attempt = attempt;
    detail::tls().hits = {};
  }
  ~AttemptScope() { detail::tls() = saved_; }
  AttemptScope(const AttemptScope&) = delete;
  AttemptScope& operator=(const AttemptScope&) = delete;

 private:
  detail::ThreadState saved_;
};

/// RAII armed fault for tests: fires at the matching stage/attempt/site and
/// disarms on destruction.  attempt/site_index of -1 are wildcards;
/// one_shot=false keeps firing on every match (e.g. to exhaust a retry
/// loop).  Arming restarts the arming thread's site numbering at 0, so a
/// site index addresses the same site whatever ran earlier on the thread
/// outside an AttemptScope.
class ScopedFault {
 public:
  explicit ScopedFault(Stage stage, int attempt = -1, int site_index = -1,
                       bool one_shot = true)
      : id_(detail::Registry::instance().arm(stage, attempt, site_index,
                                             one_shot)) {
    detail::tls().hits = {};
  }
  ~ScopedFault() { detail::Registry::instance().disarm(id_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  /// How many times this fault has fired so far.
  std::uint32_t fired() const {
    return detail::Registry::instance().fired(id_);
  }

 private:
  std::uint64_t id_;
};

#else  // !KP_FAULT_INJECTION_ENABLED: every hook is a no-op the optimizer
       // removes; ScopedFault/AttemptScope keep their shape so test code
       // compiles (tests skip themselves when the harness is compiled out).

inline bool should_fail(Stage) { return false; }

class AttemptScope {
 public:
  explicit AttemptScope(int) {}
};

class ScopedFault {
 public:
  explicit ScopedFault(Stage, int = -1, int = -1, bool = true) {}
  std::uint32_t fired() const { return 0; }
};

#endif  // KP_FAULT_INJECTION_ENABLED

}  // namespace kp::util::fault

/// Fault-injection site: true when a test armed a matching fault.  Folds to
/// `false` (and the site vanishes) when fault injection is compiled out.
#if KP_FAULT_INJECTION_ENABLED
#define KP_FAULT_POINT(stage) (kp::util::fault::should_fail(stage))
#else
#define KP_FAULT_POINT(stage) false
#endif
