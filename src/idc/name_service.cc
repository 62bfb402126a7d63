#include "idc/name_service.h"

#include "trace/trace.h"

namespace mk::idc {

NameService::NameService(hw::Machine& machine, int registry_core)
    : machine_(machine), core_(registry_core) {
  registry_lines_ =
      machine_.mem().AllocLines(machine_.topo().PackageOf(core_), 8);
}

Task<> NameService::ChargeRoundTrip(int from_core) {
  if (from_core == core_) {
    // Local call into the registry library.
    co_await machine_.Compute(core_, machine_.cost().dispatch);
    co_return;
  }
  // Request message to the registry core, registry work, reply back.
  co_await machine_.mem().Write(from_core, registry_lines_);
  co_await machine_.mem().Read(core_, registry_lines_);
  co_await machine_.Compute(core_, machine_.cost().msg_demux);
  co_await machine_.mem().Write(core_, registry_lines_ + sim::kCacheLineBytes);
  co_await machine_.mem().Read(from_core, registry_lines_ + sim::kCacheLineBytes);
}

Task<ServiceRef> NameService::Register(int from_core, std::string name,
                                       std::map<std::string, std::string> properties) {
  co_await ChargeRoundTrip(from_core);
  ServiceRef ref;
  ref.name = std::move(name);
  ref.core = from_core;
  ref.id = next_id_++;
  ref.properties = std::move(properties);
  by_name_[ref.name] = ref.id;
  by_id_[ref.id] = ref;
  co_return ref;
}

std::size_t NameService::EvictCore(int core) {
  std::size_t evicted = 0;
  for (auto it = by_id_.begin(); it != by_id_.end();) {
    if (it->second.core == core) {
      trace::Emit<trace::Category::kFault>(trace::EventId::kFaultNsEvict,
                                           machine_.exec().now(), core_,
                                           static_cast<std::uint64_t>(core),
                                           it->second.id);
      by_name_.erase(it->second.name);
      it = by_id_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

Task<std::optional<ServiceRef>> NameService::Lookup(int from_core, const std::string& name) {
  co_await ChargeRoundTrip(from_core);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    co_return std::nullopt;
  }
  ServiceRef ref = by_id_.at(it->second);
  if (machine_.Halted(ref.core)) {
    // Lazy eviction: the owning core fail-stopped after registering. Drop
    // every registration it held and report the name as unbound.
    EvictCore(ref.core);
    co_return std::nullopt;
  }
  co_return ref;
}

Task<std::vector<ServiceRef>> NameService::Query(int from_core, const std::string& key,
                                                 const std::string& value) {
  co_await ChargeRoundTrip(from_core);
  std::vector<ServiceRef> out;
  std::vector<int> dead;
  for (const auto& [id, ref] : by_id_) {
    auto it = ref.properties.find(key);
    if (it != ref.properties.end() && it->second == value) {
      if (machine_.Halted(ref.core)) {
        dead.push_back(ref.core);
        continue;
      }
      out.push_back(ref);
    }
  }
  for (int core : dead) {
    EvictCore(core);
  }
  co_return out;
}

Task<bool> NameService::Unregister(int from_core, std::uint32_t id) {
  co_await ChargeRoundTrip(from_core);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    co_return false;
  }
  by_name_.erase(it->second.name);
  by_id_.erase(it);
  co_return true;
}

}  // namespace mk::idc
