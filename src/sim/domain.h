// Domain identity for the parallel simulation engine (sim/parallel.h).
//
// A *domain* is one partition of the simulated world: a set of components
// that share mutable state freely (one hw::Machine and everything built on
// it) and therefore must execute on a single host thread. Domains interact
// only through the engine's cross-domain mailboxes, never by touching each
// other's objects.
//
// The current domain is published thread-locally by the engine around every
// run and drain phase, so layers that keep per-domain streams (mk::fault's
// per-spec Rng streams) can key on it without plumbing a
// domain id through every call site. Outside an engine run — plain
// single-executor simulations, test setup, bench main() — the current domain
// is 0, which keeps every existing run byte-identical: domain 0's streams
// are seeded exactly as the pre-engine code seeded its only stream.
//
// This header is dependency-free on purpose: mk::fault and mk::trace link
// below mk_sim and must be able to read the current domain without pulling
// in the executor.
#ifndef MK_SIM_DOMAIN_H_
#define MK_SIM_DOMAIN_H_

namespace mk::sim {

// Hard cap on engine domains. Per-domain stream tables (fault specs) are
// sized by this; 64 covers the rack-scale roadmap (8 machines x 8 shards).
inline constexpr int kMaxDomains = 64;

namespace internal {
// Set by ParallelEngine around run/drain phases; 0 everywhere else.
inline thread_local int tls_current_domain = 0;
}  // namespace internal

// The domain whose events are executing on this host thread (0 outside an
// engine run).
inline int CurrentDomain() { return internal::tls_current_domain; }

}  // namespace mk::sim

#endif  // MK_SIM_DOMAIN_H_
