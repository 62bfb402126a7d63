// Name service (section 4.6): maps service names and properties to service
// references, which are used to establish channels to services.
//
// The registry is itself a service hosted on one core; registrations and
// lookups from other cores are charged as message round trips to that core
// (the registry's lines move through the coherence model).
//
// Domain affinity (sim/parallel.h): a NameService, the services it names,
// and every client calling Register/Lookup must all live in one engine
// domain — they share the registry machine's coherent memory synchronously.
// Locating a service in another domain is a distributed-systems problem,
// not a lookup: it goes over the network (net::CrossWire) to that domain's
// own registry, exactly as the paper's multikernel treats inter-machine
// name resolution.
#ifndef MK_IDC_NAME_SERVICE_H_
#define MK_IDC_NAME_SERVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hw/machine.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::idc {

using sim::Cycles;
using sim::Task;

struct ServiceRef {
  std::string name;
  int core = 0;             // where the service's dispatcher runs
  std::uint32_t id = 0;     // assigned by the name service
  std::map<std::string, std::string> properties;
};

class NameService {
 public:
  explicit NameService(hw::Machine& machine, int registry_core = 0);

  int registry_core() const { return core_; }

  // Registers a service; returns its assigned reference.
  Task<ServiceRef> Register(int from_core, std::string name,
                            std::map<std::string, std::string> properties = {});

  // Looks up by exact name.
  Task<std::optional<ServiceRef>> Lookup(int from_core, const std::string& name);

  // Property query: all services whose properties contain `key` = `value`.
  Task<std::vector<ServiceRef>> Query(int from_core, const std::string& key,
                                      const std::string& value);

  // Removes a registration; true if it existed.
  Task<bool> Unregister(int from_core, std::uint32_t id);

  // Fail-stop recovery: drops every registration owned by `core` so clients
  // stop being handed references to services that can no longer answer.
  // Returns the number of registrations evicted. Also applied lazily:
  // Lookup and Query evict registrations whose owner hw::Machine::Halted
  // reports instead of returning them.
  std::size_t EvictCore(int core);

  std::size_t size() const { return by_id_.size(); }

 private:
  // One registry round trip: request to the registry core, reply back.
  Task<> ChargeRoundTrip(int from_core);

  hw::Machine& machine_;
  int core_;
  sim::Addr registry_lines_;
  std::uint32_t next_id_ = 1;
  std::map<std::uint32_t, ServiceRef> by_id_;
  std::map<std::string, std::uint32_t> by_name_;
};

}  // namespace mk::idc

#endif  // MK_IDC_NAME_SERVICE_H_
