#include "caps/capability.h"

#include <algorithm>

namespace mk::caps {

const char* CapErrName(CapErr e) {
  switch (e) {
    case CapErr::kOk: return "ok";
    case CapErr::kBadCap: return "bad-cap";
    case CapErr::kBadType: return "bad-type";
    case CapErr::kBadRange: return "bad-range";
    case CapErr::kHasDescendants: return "has-descendants";
    case CapErr::kLocked: return "locked";
    case CapErr::kNoRights: return "no-rights";
    case CapErr::kConflict: return "conflict";
    case CapErr::kTimeout: return "timeout";
  }
  return "?";
}

bool RetypeableFromRam(CapType t) {
  switch (t) {
    case CapType::kRam:
    case CapType::kFrame:
    case CapType::kPageTable:
    case CapType::kCNode:
    case CapType::kDispatcher:
    case CapType::kEndpoint:
      return true;
    default:
      return false;
  }
}

bool TransferableType(CapType t) {
  switch (t) {
    case CapType::kFrame:
    case CapType::kRam:
    case CapType::kEndpoint:
    case CapType::kDevice:
      return true;
    default:
      // Page tables, CNodes, and dispatchers are core-local kernel state.
      return false;
  }
}

CapId CapDb::InstallRoot(std::uint64_t base, std::uint64_t bytes) {
  Capability cap;
  cap.type = CapType::kRam;
  cap.base = base;
  cap.bytes = bytes;
  return NewNode(cap, kNoCap);
}

CapId CapDb::NewNode(const Capability& cap, CapId parent) {
  Node n;
  n.cap = cap;
  n.parent = parent;
  n.live = true;
  nodes_.push_back(std::move(n));
  auto id = static_cast<CapId>(nodes_.size() - 1);
  if (parent != kNoCap) {
    nodes_[parent].children.push_back(id);
  }
  return id;
}

CapDb::Node* CapDb::GetNode(CapId id) {
  if (id == kNoCap || id >= nodes_.size() || !nodes_[id].live) {
    return nullptr;
  }
  return &nodes_[id];
}

const CapDb::Node* CapDb::GetNode(CapId id) const {
  if (id == kNoCap || id >= nodes_.size() || !nodes_[id].live) {
    return nullptr;
  }
  return &nodes_[id];
}

const Capability* CapDb::Get(CapId id) const {
  const Node* n = GetNode(id);
  return n ? &n->cap : nullptr;
}

CapDb::RetypeResult CapDb::Retype(CapId parent, CapType new_type, std::uint64_t child_bytes,
                                  std::uint32_t count) {
  RetypeResult result;
  Node* p = GetNode(parent);
  if (p == nullptr) {
    result.err = CapErr::kBadCap;
    return result;
  }
  if (p->cap.type != CapType::kRam || !RetypeableFromRam(new_type)) {
    result.err = CapErr::kBadType;
    return result;
  }
  if (p->locked) {
    result.err = CapErr::kLocked;
    return result;
  }
  if (child_bytes == 0 || count == 0 || child_bytes * count > p->cap.bytes) {
    result.err = CapErr::kBadRange;
    return result;
  }
  if (HasDescendants(parent)) {
    // Retyping an already-retyped region would alias memory across types.
    result.err = CapErr::kHasDescendants;
    return result;
  }
  if (!p->cap.rights.grant) {
    result.err = CapErr::kNoRights;
    return result;
  }
  // Snapshot the parent before creating children: NewNode grows nodes_ and
  // may reallocate it, which would dangle `p` mid-loop.
  const Capability parent_cap = p->cap;
  for (std::uint32_t i = 0; i < count; ++i) {
    Capability child;
    child.type = new_type;
    child.base = parent_cap.base + static_cast<std::uint64_t>(i) * child_bytes;
    child.bytes = child_bytes;
    child.rights = parent_cap.rights;
    result.children.push_back(NewNode(child, parent));
  }
  return result;
}

CapDb::CopyResult CapDb::Copy(CapId src, std::optional<Rights> reduced) {
  CopyResult result;
  Node* s = GetNode(src);
  if (s == nullptr) {
    result.err = CapErr::kBadCap;
    return result;
  }
  if (!s->cap.rights.grant) {
    result.err = CapErr::kNoRights;
    return result;
  }
  Capability copy = s->cap;
  if (reduced) {
    if (!s->cap.rights.Covers(*reduced)) {
      result.err = CapErr::kNoRights;
      return result;
    }
    copy.rights = *reduced;
  }
  result.id = NewNode(copy, src);
  return result;
}

CapErr CapDb::Delete(CapId id) {
  Node* n = GetNode(id);
  if (n == nullptr) {
    return CapErr::kBadCap;
  }
  if (n->locked) {
    return CapErr::kLocked;
  }
  // Re-parent children.
  for (CapId c : n->children) {
    nodes_[c].parent = n->parent;
    if (n->parent != kNoCap) {
      nodes_[n->parent].children.push_back(c);
    }
  }
  if (n->parent != kNoCap) {
    auto& sib = nodes_[n->parent].children;
    sib.erase(std::remove(sib.begin(), sib.end(), id), sib.end());
  }
  n->children.clear();
  n->live = false;
  return CapErr::kOk;
}

void CapDb::CollectDescendants(const Node& n, std::vector<CapId>* out) const {
  for (CapId c : n.children) {
    if (nodes_[c].live) {
      out->push_back(c);
      CollectDescendants(nodes_[c], out);
    }
  }
}

std::vector<CapId> CapDb::Descendants(CapId id) const {
  std::vector<CapId> out;
  const Node* n = GetNode(id);
  if (n != nullptr) {
    CollectDescendants(*n, &out);
  }
  return out;
}

bool CapDb::HasDescendants(CapId id) const {
  const Node* n = GetNode(id);
  if (n == nullptr) {
    return false;
  }
  for (CapId c : n->children) {
    if (nodes_[c].live) {
      return true;
    }
  }
  return false;
}

CapErr CapDb::Revoke(CapId id) {
  Node* n = GetNode(id);
  if (n == nullptr) {
    return CapErr::kBadCap;
  }
  if (n->locked) {
    return CapErr::kLocked;
  }
  std::vector<CapId> descendants = Descendants(id);
  for (CapId d : descendants) {
    if (nodes_[d].locked) {
      return CapErr::kLocked;
    }
  }
  for (CapId d : descendants) {
    nodes_[d].live = false;
    nodes_[d].children.clear();
  }
  n->children.clear();
  return CapErr::kOk;
}

CapErr CapDb::Prepare(const PreparedOp& op) {
  Node* n = GetNode(op.target);
  if (n == nullptr) {
    return CapErr::kBadCap;
  }
  if (n->locked) {
    return CapErr::kConflict;
  }
  if (!op.is_revoke) {
    // Validate the retype locally without applying it.
    if (n->cap.type != CapType::kRam || !RetypeableFromRam(op.new_type)) {
      return CapErr::kBadType;
    }
    if (op.child_bytes == 0 || op.count == 0 ||
        op.child_bytes * op.count > n->cap.bytes) {
      return CapErr::kBadRange;
    }
    if (HasDescendants(op.target)) {
      return CapErr::kHasDescendants;
    }
  }
  n->locked = true;
  pending_.emplace_back(op.op_id, op);
  return CapErr::kOk;
}

std::vector<CapId> CapDb::Commit(std::uint64_t op_id) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->first != op_id) {
      continue;
    }
    PreparedOp op = it->second;
    pending_.erase(it);
    Node* n = GetNode(op.target);
    if (n == nullptr) {
      return {};
    }
    n->locked = false;
    if (op.is_revoke) {
      Revoke(op.target);
      return {};
    }
    RetypeResult r = Retype(op.target, op.new_type, op.child_bytes, op.count);
    return r.children;
  }
  return {};
}

void CapDb::Abort(std::uint64_t op_id) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->first != op_id) {
      continue;
    }
    Node* n = GetNode(it->second.target);
    if (n != nullptr) {
      n->locked = false;
    }
    pending_.erase(it);
    return;
  }
}

bool CapDb::IsLocked(CapId id) const {
  const Node* n = GetNode(id);
  return n != nullptr && n->locked;
}

CapDb::InsertResult CapDb::InsertRemote(const Capability& cap) {
  InsertResult result;
  if (!TransferableType(cap.type)) {
    result.err = CapErr::kBadType;
    return result;
  }
  // Attach under the live cap covering the same region, if any.
  CapId parent = kNoCap;
  for (CapId i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (!n.live) {
      continue;
    }
    if (n.cap.base <= cap.base && cap.base + cap.bytes <= n.cap.base + n.cap.bytes) {
      parent = i;  // keep the most specific (deepest) cover: later wins on ties
    }
  }
  result.id = NewNode(cap, parent);
  return result;
}

std::uint64_t CapDb::Digest() const {
  // FNV-1a over live capability fields, in id order (ids are deterministic).
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (CapId i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (!n.live) {
      continue;
    }
    mix(i);
    mix(static_cast<std::uint64_t>(n.cap.type));
    mix(n.cap.base);
    mix(n.cap.bytes);
    mix(n.parent);
  }
  return h;
}

std::size_t CapDb::LiveCount() const {
  std::size_t count = 0;
  for (CapId i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].live) {
      ++count;
    }
  }
  return count;
}

}  // namespace mk::caps
