// recover::View — an epoch-numbered liveness map.
//
// One type serves both membership layers: recover::MembershipService indexes
// `live` by core (which cores of this machine are in the view), and
// cluster::ClusterMembership indexes it by backend machine (which machines
// of the rack are). Epochs advance by one per committed view change. The
// header depends on nothing, so the rack tier can use it without pulling in
// the monitors.
#ifndef MK_RECOVER_VIEW_H_
#define MK_RECOVER_VIEW_H_

#include <cstdint>
#include <vector>

namespace mk::recover {

struct View {
  std::uint64_t epoch = 1;
  std::vector<bool> live;

  int NumLive() const {
    int n = 0;
    for (bool b : live) {
      n += b ? 1 : 0;
    }
    return n;
  }
};

}  // namespace mk::recover

#endif  // MK_RECOVER_VIEW_H_
