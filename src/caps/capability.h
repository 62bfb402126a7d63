// Capability system modeled on seL4 (section 4.7).
//
// All memory management is performed explicitly through capabilities:
// user-level references to kernel objects or regions of physical memory.
// Typed capabilities are derived from RAM capabilities by *retype* operations
// and destroyed (with all descendants) by *revoke*. The kernel's only memory
// management duty is checking the correctness of these operations — e.g. that
// a region is never simultaneously a mappable frame and a page table.
//
// Each core keeps a full replica of the capability database; replicas are
// kept consistent by the monitors' agreement protocols (one-phase commit for
// order-insensitive operations, two-phase commit for retype/revoke). CapDb
// exposes prepare/commit/abort hooks for the two-phase protocol.
#ifndef MK_CAPS_CAPABILITY_H_
#define MK_CAPS_CAPABILITY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mk::caps {

enum class CapType : std::uint8_t {
  kNull = 0,
  kRam,         // untyped physical memory
  kFrame,       // mappable memory
  kPageTable,   // page-table node storage
  kCNode,       // capability storage
  kDispatcher,  // dispatcher control block
  kEndpoint,    // IPC endpoint
  kDevice,      // device-register region
};

// True if RAM may be retyped into `t`.
bool RetypeableFromRam(CapType t);

// True if a capability of this type may be transferred to another core
// (section 4.8: the monitors check transferability).
bool TransferableType(CapType t);

struct Rights {
  bool read = true;
  bool write = true;
  bool grant = true;  // may be copied/transferred onward

  // True if `other` is equal or weaker.
  bool Covers(const Rights& other) const {
    return (read || !other.read) && (write || !other.write) && (grant || !other.grant);
  }
};

using CapId = std::uint32_t;
inline constexpr CapId kNoCap = 0;

struct Capability {
  CapType type = CapType::kNull;
  std::uint64_t base = 0;   // physical base address
  std::uint64_t bytes = 0;  // region size
  Rights rights;
};

// Outcome of a local capability operation.
enum class CapErr {
  kOk = 0,
  kBadCap,         // no such capability / deleted
  kBadType,        // operation not allowed for this type
  kBadRange,       // size/alignment out of range
  kHasDescendants, // retype requires no live descendants
  kLocked,         // region locked by an in-flight two-phase operation
  kNoRights,       // rights do not permit the operation
  kConflict,       // overlapping in-flight operation
  kTimeout,        // remote replica did not answer (fault injection / dead core)
};

const char* CapErrName(CapErr e);

// A per-core replica of the global capability database, organized as a
// derivation tree (the mapping database). Deterministic: applying the same
// committed operations in the same order yields identical replicas, which the
// monitors' agreement protocols guarantee.
class CapDb {
 public:
  CapDb() = default;

  // Installs the boot-time root RAM capability covering [base, base+bytes).
  CapId InstallRoot(std::uint64_t base, std::uint64_t bytes);

  const Capability* Get(CapId id) const;
  bool Exists(CapId id) const { return Get(id) != nullptr; }

  // Splits `count` children of `new_type`, each `child_bytes` long, out of a
  // RAM capability (from its start). Fails if the cap has live descendants,
  // is locked, or typing rules forbid it. Returns the new ids.
  struct RetypeResult {
    CapErr err = CapErr::kOk;
    std::vector<CapId> children;
  };
  RetypeResult Retype(CapId parent, CapType new_type, std::uint64_t child_bytes,
                      std::uint32_t count);

  // Copies a capability (optionally with reduced rights). The copy is a CDT
  // child of the original.
  struct CopyResult {
    CapErr err = CapErr::kOk;
    CapId id = kNoCap;
  };
  CopyResult Copy(CapId src, std::optional<Rights> reduced = std::nullopt);

  // Deletes this capability only (descendants are re-parented to its parent).
  CapErr Delete(CapId id);

  // Revokes: deletes every descendant of `id` (but not `id` itself).
  CapErr Revoke(CapId id);

  bool HasDescendants(CapId id) const;
  std::vector<CapId> Descendants(CapId id) const;

  // --- Two-phase-commit hooks (called by the monitors) ---
  //
  // Prepare checks that the operation is locally admissible and locks the
  // affected region against conflicting prepares. Commit applies it and
  // unlocks; Abort just unlocks.
  struct PreparedOp {
    std::uint64_t op_id = 0;
    CapId target = kNoCap;
    bool is_revoke = false;  // else retype
    CapType new_type = CapType::kNull;
    std::uint64_t child_bytes = 0;
    std::uint32_t count = 0;
  };
  CapErr Prepare(const PreparedOp& op);
  // Returns the ids created by a committed retype (empty for revoke).
  std::vector<CapId> Commit(std::uint64_t op_id);
  void Abort(std::uint64_t op_id);

  bool IsLocked(CapId id) const;

  // Inserts a capability received from another core (monitor cap transfer).
  // The remote cap must be transferable; it is installed as a CDT child of
  // the local cap covering the same region if one exists, else as a root.
  struct InsertResult {
    CapErr err = CapErr::kOk;
    CapId id = kNoCap;
  };
  InsertResult InsertRemote(const Capability& cap);

  // Replica digest for consistency checks in tests: a deterministic hash of
  // all live capabilities.
  std::uint64_t Digest() const;

  std::size_t LiveCount() const;

 private:
  struct Node {
    Capability cap;
    CapId parent = kNoCap;
    std::vector<CapId> children;
    bool live = false;
    bool locked = false;
  };

  CapId NewNode(const Capability& cap, CapId parent);
  Node* GetNode(CapId id);
  const Node* GetNode(CapId id) const;
  void CollectDescendants(const Node& n, std::vector<CapId>* out) const;

  std::vector<Node> nodes_{Node{}};  // index 0 is the null sentinel
  std::vector<std::pair<std::uint64_t, PreparedOp>> pending_;  // op_id -> op
};

}  // namespace mk::caps

#endif  // MK_CAPS_CAPABILITY_H_
