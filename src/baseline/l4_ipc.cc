#include "baseline/l4_ipc.h"

#include <string_view>

namespace mk::baseline {

Cycles L4Ipc::RawLatency() const {
  // Measured on the 2x2-core AMD system (L4Ka::Pistachio, 2009-02-25 build);
  // estimates elsewhere scaled by the platform's kernel-path costs.
  std::string_view name = machine_.spec().name;
  if (name == "2x2-core AMD") {
    return 424;
  }
  if (name == "2x4-core Intel") {
    return 440;
  }
  if (name == "4x4-core AMD") {
    return 820;
  }
  if (name == "8x4-core AMD") {
    return 870;
  }
  return 424;
}

Task<> L4Ipc::Call() {
  ++calls_;
  co_await machine_.Compute(core_, RawLatency());
  // The address-space switch invalidates the core's TLB. Its cycle cost is
  // already inside the raw latency, but the lost translations are real.
  machine_.tlb(core_).FlushAllNoCost();
}

}  // namespace mk::baseline
