#include "fault/fault.h"

#include <cassert>

namespace mk::fault {

namespace internal {
Injector* g_active = nullptr;
}  // namespace internal

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kCoreHalt: return "core-halt";
    case FaultKind::kIpiDrop: return "ipi-drop";
    case FaultKind::kIpiDelay: return "ipi-delay";
    case FaultKind::kNicRxDrop: return "nic-rx-drop";
    case FaultKind::kNicRxCorrupt: return "nic-rx-corrupt";
    case FaultKind::kNicTxDrop: return "nic-tx-drop";
    case FaultKind::kLinkDelay: return "link-delay";
    case FaultKind::kWireDrop: return "wire-drop";
    case FaultKind::kWireDelay: return "wire-delay";
    case FaultKind::kSynFlood: return "syn-flood";
    case FaultKind::kSlowloris: return "slowloris";
    case FaultKind::kConnChurn: return "conn-churn";
    case FaultKind::kNumKinds: break;
  }
  return "?";
}

FaultPlan& FaultPlan::Add(const FaultSpec& spec) {
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::HaltCore(int core, sim::Cycles at) {
  FaultSpec s;
  s.kind = FaultKind::kCoreHalt;
  s.at = at;
  s.a = core;
  return Add(s);
}

FaultPlan& FaultPlan::HaltMachine(int machine, sim::Cycles at) {
  FaultSpec s;
  s.kind = FaultKind::kCoreHalt;
  s.at = at;
  s.a = -1;  // every core of the machine
  s.machine = machine;
  return Add(s);
}

FaultPlan& FaultPlan::DropIpi(int from, int to, sim::Cycles at, int count) {
  FaultSpec s;
  s.kind = FaultKind::kIpiDrop;
  s.at = at;
  s.a = from;
  s.b = to;
  s.count = count;
  return Add(s);
}

FaultPlan& FaultPlan::DelayIpi(int from, int to, sim::Cycles extra, sim::Cycles at,
                               sim::Cycles until) {
  FaultSpec s;
  s.kind = FaultKind::kIpiDelay;
  s.at = at;
  s.until = until;
  s.a = from;
  s.b = to;
  s.extra = extra;
  return Add(s);
}

FaultPlan& FaultPlan::DropRxFrames(sim::Cycles at, int count) {
  FaultSpec s;
  s.kind = FaultKind::kNicRxDrop;
  s.at = at;
  s.count = count;
  return Add(s);
}

FaultPlan& FaultPlan::DropRxFramesOnQueue(int queue, sim::Cycles at, int count) {
  FaultSpec s;
  s.kind = FaultKind::kNicRxDrop;
  s.at = at;
  s.a = queue;
  s.count = count;
  return Add(s);
}

FaultPlan& FaultPlan::RandomRxLoss(double rate, std::uint64_t seed, sim::Cycles at,
                                   sim::Cycles until) {
  FaultSpec s;
  s.kind = FaultKind::kNicRxDrop;
  s.at = at;
  s.until = until;
  s.probability = rate;
  s.seed = seed;
  return Add(s);
}

FaultPlan& FaultPlan::CorruptRxFrames(sim::Cycles at, int count) {
  FaultSpec s;
  s.kind = FaultKind::kNicRxCorrupt;
  s.at = at;
  s.count = count;
  return Add(s);
}

FaultPlan& FaultPlan::DropTxFrames(sim::Cycles at, int count) {
  FaultSpec s;
  s.kind = FaultKind::kNicTxDrop;
  s.at = at;
  s.count = count;
  return Add(s);
}

FaultPlan& FaultPlan::RandomTxLoss(double rate, std::uint64_t seed, sim::Cycles at,
                                   sim::Cycles until) {
  FaultSpec s;
  s.kind = FaultKind::kNicTxDrop;
  s.at = at;
  s.until = until;
  s.probability = rate;
  s.seed = seed;
  return Add(s);
}

FaultPlan& FaultPlan::LinkSpike(sim::Cycles extra, sim::Cycles at, sim::Cycles until) {
  FaultSpec s;
  s.kind = FaultKind::kLinkDelay;
  s.at = at;
  s.until = until;
  s.extra = extra;
  return Add(s);
}

FaultPlan& FaultPlan::DropWireFrames(int src_machine, int dst_machine,
                                     sim::Cycles at, int count) {
  FaultSpec s;
  s.kind = FaultKind::kWireDrop;
  s.at = at;
  s.a = src_machine;
  s.b = dst_machine;
  s.count = count;
  return Add(s);
}

FaultPlan& FaultPlan::WireDelay(int src_machine, int dst_machine, sim::Cycles extra,
                                sim::Cycles at, sim::Cycles until) {
  FaultSpec s;
  s.kind = FaultKind::kWireDelay;
  s.at = at;
  s.until = until;
  s.a = src_machine;
  s.b = dst_machine;
  s.extra = extra;
  return Add(s);
}

namespace {
FaultSpec AttackSpec(FaultKind kind, sim::Cycles at, sim::Cycles until, int count,
                     double probability, std::uint64_t seed) {
  FaultSpec s;
  s.kind = kind;
  s.at = at;
  s.until = until;
  s.count = count;
  s.probability = probability;
  s.seed = seed;
  return s;
}
}  // namespace

FaultPlan& FaultPlan::SynFlood(sim::Cycles at, sim::Cycles until, int count,
                               double probability, std::uint64_t seed) {
  return Add(AttackSpec(FaultKind::kSynFlood, at, until, count, probability, seed));
}

FaultPlan& FaultPlan::Slowloris(sim::Cycles at, sim::Cycles until, int count,
                                double probability, std::uint64_t seed) {
  return Add(AttackSpec(FaultKind::kSlowloris, at, until, count, probability, seed));
}

FaultPlan& FaultPlan::ConnChurn(sim::Cycles at, sim::Cycles until, int count,
                                double probability, std::uint64_t seed) {
  return Add(AttackSpec(FaultKind::kConnChurn, at, until, count, probability, seed));
}

Injector::Injector(const FaultPlan& plan) {
  assert(internal::g_active == nullptr && "an Injector is already active");
  for (const FaultSpec& s : plan.specs()) {
    specs_.emplace_back(s);
  }
  internal::g_active = this;
}

Injector::~Injector() {
  if (internal::g_active == this) {
    internal::g_active = nullptr;
  }
}

namespace {
bool EndpointMatches(int want, int got) { return want == -1 || want == got; }

bool Armed(const FaultSpec& s, sim::Cycles now) {
  return now >= s.at && now < s.until;
}
}  // namespace

bool Injector::CoreHalted(int core, sim::Cycles now) const {
  const int dom = sim::CurrentDomain();
  for (const SpecState& st : specs_) {
    const FaultSpec& s = st.spec;
    if (s.kind != FaultKind::kCoreHalt || now < s.at) {
      continue;
    }
    if (s.a != -1 && s.a != core) {
      continue;
    }
    if (s.machine != -1 && s.machine != dom) {
      continue;
    }
    st.activations.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

Injector::SpecState* Injector::Consume(FaultKind kind, sim::Cycles now, int a, int b) {
  const auto dom = static_cast<std::size_t>(sim::CurrentDomain());
  for (SpecState& st : specs_) {
    const FaultSpec& s = st.spec;
    if (s.kind != kind || !Armed(s, now)) {
      continue;
    }
    if (!EndpointMatches(s.a, a) || !EndpointMatches(s.b, b)) {
      continue;
    }
    if (s.machine != -1 && s.machine != static_cast<int>(dom)) {
      continue;
    }
    if (s.count != kUnlimited && st.fired[dom] >= s.count) {
      continue;
    }
    // The probability draw happens per candidate the spec considers, so a
    // lossy-link spec consumes exactly one variate per matching frame —
    // deterministic regardless of what other specs do. Counter and stream
    // are the calling domain's own, so concurrent domains neither race nor
    // perturb each other's sequences.
    if (s.probability < 1.0 && !st.rng[dom].Chance(s.probability)) {
      continue;
    }
    ++st.fired[dom];
    st.activations.fetch_add(1, std::memory_order_relaxed);
    injected_[static_cast<std::size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
    return &st;
  }
  return nullptr;
}

bool Injector::ShouldDropIpi(sim::Cycles now, int from, int to) {
  return Consume(FaultKind::kIpiDrop, now, from, to) != nullptr;
}

sim::Cycles Injector::IpiExtraDelay(sim::Cycles now, int from, int to) {
  SpecState* st = Consume(FaultKind::kIpiDelay, now, from, to);
  return st != nullptr ? st->spec.extra : 0;
}

bool Injector::ShouldDropRxFrame(sim::Cycles now, int queue) {
  return Consume(FaultKind::kNicRxDrop, now, queue, -1) != nullptr;
}

bool Injector::ShouldCorruptRxFrame(sim::Cycles now, int queue) {
  return Consume(FaultKind::kNicRxCorrupt, now, queue, -1) != nullptr;
}

bool Injector::ShouldDropTxFrame(sim::Cycles now, int queue) {
  return Consume(FaultKind::kNicTxDrop, now, queue, -1) != nullptr;
}

bool Injector::ShouldDropWireFrame(sim::Cycles now, int src_machine,
                                   int dst_machine) {
  return Consume(FaultKind::kWireDrop, now, src_machine, dst_machine) != nullptr;
}

sim::Cycles Injector::WireExtraDelay(sim::Cycles now, int src_machine,
                                     int dst_machine) {
  SpecState* st = Consume(FaultKind::kWireDelay, now, src_machine, dst_machine);
  return st != nullptr ? st->spec.extra : 0;
}

sim::Cycles Injector::LinkExtra(sim::Cycles now) const {
  sim::Cycles extra = 0;
  for (const SpecState& st : specs_) {
    if (st.spec.kind == FaultKind::kLinkDelay && Armed(st.spec, now)) {
      st.activations.fetch_add(1, std::memory_order_relaxed);
      extra += st.spec.extra;
    }
  }
  return extra;
}

bool Injector::ShouldEmitAttack(FaultKind kind, sim::Cycles now) {
  return Consume(kind, now, -1, -1) != nullptr;
}

bool Injector::AllSpecsActivated() const {
  for (const SpecState& st : specs_) {
    if (st.activations.load(std::memory_order_relaxed) == 0) {
      return false;
    }
  }
  return true;
}

void Injector::PrintActivationTable(std::FILE* out) const {
  std::fprintf(out, "fault plan coverage (%zu specs):\n", specs_.size());
  std::fprintf(out, "  %3s %-14s %12s %12s %4s %4s %4s %5s %12s\n", "#", "kind",
               "at", "until", "a", "b", "mach", "cap", "activations");
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& s = specs_[i].spec;
    char until[24];
    if (s.until == sim::kForever) {
      std::snprintf(until, sizeof until, "%s", "-");
    } else {
      std::snprintf(until, sizeof until, "%llu",
                    static_cast<unsigned long long>(s.until));
    }
    char cap[16];
    if (s.count == kUnlimited) {
      std::snprintf(cap, sizeof cap, "%s", "-");
    } else {
      std::snprintf(cap, sizeof cap, "%d", s.count);
    }
    const std::uint64_t acts = specs_[i].activations.load(std::memory_order_relaxed);
    std::fprintf(out, "  %3zu %-14s %12llu %12s %4d %4d %4d %5s %12llu%s\n", i,
                 FaultKindName(s.kind), static_cast<unsigned long long>(s.at),
                 until, s.a, s.b, s.machine, cap,
                 static_cast<unsigned long long>(acts),
                 acts == 0 ? "  <-- never fired" : "");
  }
}

}  // namespace mk::fault
