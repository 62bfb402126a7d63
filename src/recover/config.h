// Recovery: whether it runs, how its waits are bounded, and TCP's two
// retransmit knobs.
//
// Whether recovery is armed is one decision, made here: Armed() is true
// while a fault::Injector is alive, and Bound(c) turns a timeout into
// sim::kForever otherwise, so a plain run waits unboundedly and schedules no
// timer event (see DESIGN.md §8).
//
// Every other recovery timeout and retry budget is a named constant beside
// the one module that reads it: the 2PC phase timeout, heartbeat period and
// 2PC retry budget in src/monitor, the replica RPC timeout and failover
// budget in src/apps/dbshard.cc, and the store's RPC timeout, retry budget,
// commit wait and catch-up poll in src/apps/store.cc. Not every one is read
// only when armed:
// - the monitor, DB-RPC and store wait timeouts go through Bound, the
//   heartbeat runs only while armed, and the store catch-up poll only after
//   a kill;
// - the retry budgets bound their loops in every run (a plain 2PC still
//   retries on lock conflicts).
//
// RecoveryConfig holds the two values that callers do set, read through
// Config() by src/net/stack.cc: bench::ServingRecoveryConfig raises both
// for loaded serving runs, and conn_scale and perfbench conn_keepalive raise
// the RTO, each for a scope (ScopedRecoveryConfig). TCP retransmits ride the
// stack's timer wheel on both disciplines. Lifecycle TCP arms its retransmit
// timer from tcp_rto and tcp_max_retx in every run, so a plain run that
// overrides them (conn_scale, perfbench conn_keepalive) changes its
// schedule. Legacy TCP arms it only while Armed() and stops re-arming once
// Armed() turns false, so a plain legacy run never reads them.
#ifndef MK_RECOVER_CONFIG_H_
#define MK_RECOVER_CONFIG_H_

#include "fault/fault.h"
#include "sim/types.h"

namespace mk::recover {

struct RecoveryConfig {
  // Initial retransmission timeout; doubles per consecutive unanswered round.
  sim::Cycles tcp_rto = 200'000;
  // Unanswered go-back-N rounds before the peer is presumed dead and the
  // connection's timer gives up.
  int tcp_max_retx = 8;
};

// The process-wide current configuration. The simulator is single-threaded;
// reads at the use sites see whatever the bench or test last installed.
inline RecoveryConfig& MutableRecoveryConfig() {
  static RecoveryConfig config;
  return config;
}

inline const RecoveryConfig& Config() { return MutableRecoveryConfig(); }

// True while a fault::Injector is alive (one is armed for exactly its
// lifetime): the recovery machinery (bounded waits, the monitor heartbeat,
// legacy TCP's wheel retransmits) runs only then.
inline bool Armed() { return fault::Injector::active() != nullptr; }

// The wait bound for a recovery timeout `c`: `c` when armed, sim::kForever
// (an unbounded wait with no timer) otherwise.
inline sim::Cycles Bound(sim::Cycles c) { return Armed() ? c : sim::kForever; }

// RAII override: installs `c` for the scope, restores the previous values on
// destruction. A bench installs its TCP values with this for one run.
class ScopedRecoveryConfig {
 public:
  explicit ScopedRecoveryConfig(const RecoveryConfig& c)
      : saved_(MutableRecoveryConfig()) {
    MutableRecoveryConfig() = c;
  }
  ScopedRecoveryConfig(const ScopedRecoveryConfig&) = delete;
  ScopedRecoveryConfig& operator=(const ScopedRecoveryConfig&) = delete;
  ~ScopedRecoveryConfig() { MutableRecoveryConfig() = saved_; }

 private:
  RecoveryConfig saved_;
};

}  // namespace mk::recover

#endif  // MK_RECOVER_CONFIG_H_
