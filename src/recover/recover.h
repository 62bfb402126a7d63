// mk::recover — membership as a first-class, cross-subsystem input.
//
// The paper's fault-handling argument (§2.3, §7) is that a multikernel can
// "exploit insights from distributed systems": failure is a membership
// problem, and recovery is what the survivors do when the view changes. PR 3
// armed the detectors (heartbeats, 2PC presumed-abort, EvictCore) but their
// verdicts stayed 2PC-internal; this module publishes them.
//
// MembershipService sits on top of MonitorSystem: when the heartbeat sweep or
// a phase timeout excludes a fail-stop core, the service runs an epoch-
// numbered view change — propose, agree among the survivors using the same
// multicast collective machinery the monitors already use for hotplug
// (OpKind::kPing over the effective route), commit — and then notifies its
// subscribers in order with the new view and the dead core. Subscribers are
// the serving stack's failover actions: reprogram the NIC RSS indirection
// table, adopt orphaned flows, re-point DB clients, respawn replicas.
//
// Like the rest of the recovery machinery, everything here runs only while a
// fault::Injector is alive (exclusions cannot happen otherwise), so plain
// runs schedule no extra events and stay byte-identical.
#ifndef MK_RECOVER_RECOVER_H_
#define MK_RECOVER_RECOVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "monitor/monitor.h"
#include "recover/view.h"
#include "sim/task.h"

namespace mk::recover {

class MembershipService {
 public:
  // Called once per committed view change, in subscription order, on the
  // view-change task. `dead_core` is the core this change excluded.
  using Subscriber = std::function<sim::Task<>(const View& view, int dead_core)>;

  // Hooks into `sys` (MonitorSystem::SetExclusionHook); the service must
  // outlive every view-change task it spawns — benches keep it alive until
  // the executor drains.
  explicit MembershipService(monitor::MonitorSystem& sys);
  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;
  ~MembershipService();

  void Subscribe(Subscriber fn) { subscribers_.push_back(std::move(fn)); }

  const View& view() const { return view_; }
  std::uint64_t view_changes_committed() const { return committed_; }

 private:
  // Exclusions arrive from the monitor hook; view changes are serialized so
  // concurrent exclusions commit distinct epochs in exclusion order.
  void OnExclusion(int dead_core);
  sim::Task<> Worker();
  sim::Task<> ViewChange(int dead_core);

  monitor::MonitorSystem& sys_;
  View view_;
  std::vector<Subscriber> subscribers_;
  std::deque<int> pending_;
  bool worker_running_ = false;
  std::uint64_t committed_ = 0;
};

}  // namespace mk::recover

#endif  // MK_RECOVER_RECOVER_H_
