// Recovery tuning knobs, collected in one place.
//
// The recovery machinery (2PC phase timeouts, heartbeats, URPC and packet
// receive timeouts, TCP retransmission) reads its timeouts and retry budgets
// from one documented struct with the historical values as defaults, read at
// the use sites through Config(), so benches and tests can tighten or relax
// recovery behaviour at runtime (ScopedRecoveryConfig) without touching
// headers.
//
// Whether recovery is armed is one decision, made here: Armed() is true
// while a fault::Injector is installed, and Bound(c) turns a timeout into
// sim::kForever otherwise, so a plain run waits unboundedly and schedules no
// timer event (see DESIGN.md §8). Not every field is read only when armed:
// - the monitor, DB-RPC and store wait timeouts go through Bound, the
//   heartbeat period is read only while armed, and the store catch-up poll
//   only after a kill;
// - the retry budgets bound their loops in every run (a plain 2PC still
//   retries on lock conflicts);
// - lifecycle TCP arms its retransmit timer from tcp_rto and tcp_max_retx in
//   every run, so a plain run that overrides them (conn_scale, perfbench
//   conn_keepalive) changes its schedule. Legacy TCP reads them only when
//   armed.
#ifndef MK_RECOVER_CONFIG_H_
#define MK_RECOVER_CONFIG_H_

#include "fault/fault.h"
#include "sim/types.h"

namespace mk::recover {

struct RecoveryConfig {
  // --- Monitor agreement (src/monitor) ---

  // How long a 2PC/collective initiator waits for a phase's acks before
  // presuming abort. Comfortably exceeds the slowest observed collective on
  // the modeled machines.
  sim::Cycles phase_timeout = 500'000;
  // How often non-initiating monitors sweep for dead peers (and how often the
  // membership service can first observe an exclusion).
  sim::Cycles heartbeat_period = 50'000;
  // 2PC conflict-retry budget: rounds of prepare/abort an initiator plays
  // before reporting kRetriesExhausted.
  int max_attempts = 12;

  // --- TCP (src/net/stack) ---

  // Initial retransmission timeout; doubles per consecutive unanswered round.
  sim::Cycles tcp_rto = 200'000;
  // Unanswered go-back-N rounds before the peer is presumed dead and the
  // connection's timer gives up.
  int tcp_max_retx = 8;

  // --- Sharded DB RPC (src/apps/dbshard over net::PacketChannel) ---

  // How long a web shard waits for its replica's reply before presuming the
  // replica dead and failing over to another live replica. Must exceed the
  // slowest legitimate query end-to-end (a full 30k-row TPC-W scan costs
  // ~755k cycles on the replica core alone), or healthy replicas get declared
  // dead under load.
  sim::Cycles db_rpc_timeout = 2'000'000;
  // Replica-failover retry budget: distinct replicas a query will try before
  // giving up (first attempt included).
  int db_max_attempts = 3;

  // --- Replicated read-write store (src/apps/store over URPC/PacketChannel) ---

  // How long the web tier waits for the shard leader's reply before retrying.
  // Writes pay WAL append (a machine-wide collective) plus log shipping plus
  // a follower durability ack before the leader responds, so this sits above
  // db_rpc_timeout.
  sim::Cycles store_rpc_timeout = 3'000'000;
  // Write/read retry budget at the web tier (first attempt included). Retries
  // reuse the client write id, so a write that committed but lost its ack is
  // answered "dup" rather than applied twice.
  int store_max_attempts = 4;
  // Leader's per-wait bound on follower durability acks; each expiry
  // re-checks which followers are still live before waiting again.
  sim::Cycles store_commit_timeout = 500'000;
  // Respawned-replica catch-up: pause between WAL replay rounds while the
  // follower closes the gap to the leader's last assigned lsn.
  sim::Cycles store_catchup_poll = 100'000;
};

// The process-wide current configuration. The simulator is single-threaded;
// reads at the use sites see whatever the bench or test last installed.
inline RecoveryConfig& MutableRecoveryConfig() {
  static RecoveryConfig config;
  return config;
}

inline const RecoveryConfig& Config() { return MutableRecoveryConfig(); }

// True while a fault::Injector is installed: the recovery machinery (bounded
// waits, the monitor heartbeat, legacy TCP retransmits) runs only then.
inline bool Armed() { return fault::Injector::active() != nullptr; }

// The wait bound for a recovery timeout `c`: `c` when armed, sim::kForever
// (an unbounded wait with no timer) otherwise.
inline sim::Cycles Bound(sim::Cycles c) { return Armed() ? c : sim::kForever; }

// RAII override: installs `c` for the scope, restores the previous values on
// destruction. Tests tighten timeouts with this so suites stay fast.
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
