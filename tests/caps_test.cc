// Tests for the capability system: typing rules, derivation tree, revoke,
// rights, and the two-phase-commit hooks.
#include <gtest/gtest.h>

#include "caps/capability.h"

namespace mk::caps {
namespace {

constexpr std::uint64_t kMiB = 1 << 20;

TEST(CapDb, InstallRootCreatesRamCap) {
  CapDb db;
  CapId root = db.InstallRoot(0x100000, 16 * kMiB);
  const Capability* cap = db.Get(root);
  ASSERT_NE(cap, nullptr);
  EXPECT_EQ(cap->type, CapType::kRam);
  EXPECT_EQ(cap->base, 0x100000u);
  EXPECT_EQ(cap->bytes, 16 * kMiB);
  EXPECT_EQ(db.LiveCount(), 1u);
}

TEST(CapDb, RetypeSplitsRegionSequentially) {
  CapDb db;
  CapId root = db.InstallRoot(0, 16 * kMiB);
  auto r = db.Retype(root, CapType::kFrame, kMiB, 4);
  ASSERT_EQ(r.err, CapErr::kOk);
  ASSERT_EQ(r.children.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const Capability* c = db.Get(r.children[i]);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->type, CapType::kFrame);
    EXPECT_EQ(c->base, i * kMiB);
    EXPECT_EQ(c->bytes, kMiB);
  }
}

TEST(CapDb, RetypeOfRetypedRegionFails) {
  // The core safety property: memory may not be aliased under two types.
  CapDb db;
  CapId root = db.InstallRoot(0, kMiB);
  ASSERT_EQ(db.Retype(root, CapType::kFrame, 4096, 1).err, CapErr::kOk);
  auto again = db.Retype(root, CapType::kPageTable, 4096, 1);
  EXPECT_EQ(again.err, CapErr::kHasDescendants);
}

TEST(CapDb, RetypeTypingRules) {
  CapDb db;
  CapId root = db.InstallRoot(0, kMiB);
  auto frames = db.Retype(root, CapType::kFrame, 4096, 2);
  ASSERT_EQ(frames.err, CapErr::kOk);
  // A frame cannot be retyped (only RAM can).
  EXPECT_EQ(db.Retype(frames.children[0], CapType::kPageTable, 4096, 1).err,
            CapErr::kBadType);
  // Device regions cannot be minted from RAM.
  CapId root2 = db.InstallRoot(kMiB, kMiB);
  EXPECT_EQ(db.Retype(root2, CapType::kDevice, 4096, 1).err, CapErr::kBadType);
}

TEST(CapDb, RetypeRangeChecks) {
  CapDb db;
  CapId root = db.InstallRoot(0, 8192);
  EXPECT_EQ(db.Retype(root, CapType::kFrame, 4096, 3).err, CapErr::kBadRange);
  EXPECT_EQ(db.Retype(root, CapType::kFrame, 0, 1).err, CapErr::kBadRange);
  EXPECT_EQ(db.Retype(root, CapType::kFrame, 4096, 0).err, CapErr::kBadRange);
  EXPECT_EQ(db.Retype(999, CapType::kFrame, 4096, 1).err, CapErr::kBadCap);
}

TEST(CapDb, RevokeDeletesAllDescendants) {
  CapDb db;
  CapId root = db.InstallRoot(0, 16 * kMiB);
  auto rams = db.Retype(root, CapType::kRam, 4 * kMiB, 2);
  ASSERT_EQ(rams.err, CapErr::kOk);
  auto frames = db.Retype(rams.children[0], CapType::kFrame, kMiB, 2);
  ASSERT_EQ(frames.err, CapErr::kOk);
  EXPECT_EQ(db.LiveCount(), 5u);
  EXPECT_EQ(db.Revoke(root), CapErr::kOk);
  EXPECT_EQ(db.LiveCount(), 1u);  // only the root survives
  EXPECT_EQ(db.Get(frames.children[0]), nullptr);
  // The region is now retypeable again.
  EXPECT_EQ(db.Retype(root, CapType::kPageTable, 4096, 1).err, CapErr::kOk);
}

TEST(CapDb, CopyTracksDerivationAndRights) {
  CapDb db;
  CapId root = db.InstallRoot(0, kMiB);
  auto frames = db.Retype(root, CapType::kFrame, kMiB, 1);
  CapId frame = frames.children[0];
  auto ro = db.Copy(frame, Rights{true, false, false});
  ASSERT_EQ(ro.err, CapErr::kOk);
  EXPECT_FALSE(db.Get(ro.id)->rights.write);
  // Rights cannot be amplified by copying.
  auto rw = db.Copy(ro.id, Rights{true, true, true});
  EXPECT_EQ(rw.err, CapErr::kNoRights);
  // A no-grant copy cannot be copied at all.
  EXPECT_EQ(db.Copy(ro.id).err, CapErr::kNoRights);
  // Revoking the frame kills the copy.
  EXPECT_EQ(db.Revoke(frame), CapErr::kOk);
  EXPECT_EQ(db.Get(ro.id), nullptr);
  EXPECT_NE(db.Get(frame), nullptr);
}

TEST(CapDb, DeleteReparentsChildren) {
  CapDb db;
  CapId root = db.InstallRoot(0, kMiB);
  auto ram = db.Retype(root, CapType::kRam, kMiB / 2, 1);
  auto frame = db.Retype(ram.children[0], CapType::kFrame, 4096, 1);
  ASSERT_EQ(frame.err, CapErr::kOk);
  EXPECT_EQ(db.Delete(ram.children[0]), CapErr::kOk);
  EXPECT_EQ(db.Get(ram.children[0]), nullptr);
  // The frame survives, now as a descendant of root.
  EXPECT_NE(db.Get(frame.children[0]), nullptr);
  auto desc = db.Descendants(root);
  EXPECT_EQ(desc, std::vector<CapId>{frame.children[0]});
}

TEST(CapDb, PrepareLocksAgainstConflicts) {
  CapDb db;
  CapId root = db.InstallRoot(0, kMiB);
  CapDb::PreparedOp op1{1, root, false, CapType::kFrame, 4096, 1};
  CapDb::PreparedOp op2{2, root, false, CapType::kPageTable, 4096, 1};
  EXPECT_EQ(db.Prepare(op1), CapErr::kOk);
  EXPECT_TRUE(db.IsLocked(root));
  // A conflicting prepare on the same cap must fail until resolution.
  EXPECT_EQ(db.Prepare(op2), CapErr::kConflict);
  // Direct operations on a locked cap fail too.
  EXPECT_EQ(db.Retype(root, CapType::kFrame, 4096, 1).err, CapErr::kLocked);
  EXPECT_EQ(db.Revoke(root), CapErr::kLocked);
}

TEST(CapDb, CommitAppliesPreparedRetype) {
  CapDb db;
  CapId root = db.InstallRoot(0, kMiB);
  CapDb::PreparedOp op{7, root, false, CapType::kFrame, 4096, 2};
  ASSERT_EQ(db.Prepare(op), CapErr::kOk);
  auto children = db.Commit(7);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_FALSE(db.IsLocked(root));
  EXPECT_EQ(db.Get(children[0])->type, CapType::kFrame);
}

TEST(CapDb, AbortUnlocksWithoutApplying) {
  CapDb db;
  CapId root = db.InstallRoot(0, kMiB);
  CapDb::PreparedOp op{9, root, false, CapType::kFrame, 4096, 1};
  ASSERT_EQ(db.Prepare(op), CapErr::kOk);
  db.Abort(9);
  EXPECT_FALSE(db.IsLocked(root));
  EXPECT_FALSE(db.HasDescendants(root));
  // Now a fresh prepare succeeds.
  CapDb::PreparedOp op2{10, root, false, CapType::kPageTable, 4096, 1};
  EXPECT_EQ(db.Prepare(op2), CapErr::kOk);
}

TEST(CapDb, PrepareRevokeThenCommit) {
  CapDb db;
  CapId root = db.InstallRoot(0, kMiB);
  auto frames = db.Retype(root, CapType::kFrame, 4096, 3);
  CapDb::PreparedOp op{11, root, true, CapType::kNull, 0, 0};
  ASSERT_EQ(db.Prepare(op), CapErr::kOk);
  db.Commit(11);
  EXPECT_EQ(db.LiveCount(), 1u);
  EXPECT_EQ(db.Get(frames.children[0]), nullptr);
}

TEST(CapDb, ReplicaDigestsMatchForSameHistory) {
  CapDb a;
  CapDb b;
  auto apply = [](CapDb& db) {
    CapId root = db.InstallRoot(0, 16 * kMiB);
    auto rams = db.Retype(root, CapType::kRam, 4 * kMiB, 2);
    db.Retype(rams.children[1], CapType::kFrame, kMiB, 2);
    db.Revoke(rams.children[0]);
  };
  apply(a);
  apply(b);
  EXPECT_EQ(a.Digest(), b.Digest());
  // Diverge b.
  b.Retype(2, CapType::kCNode, 4096, 1);
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(CapDb, InsertRemoteRespectsTransferability) {
  CapDb db;
  db.InstallRoot(0, 16 * kMiB);
  Capability frame;
  frame.type = CapType::kFrame;
  frame.base = kMiB;
  frame.bytes = 4096;
  auto ins = db.InsertRemote(frame);
  EXPECT_EQ(ins.err, CapErr::kOk);
  EXPECT_NE(db.Get(ins.id), nullptr);
  Capability pt;
  pt.type = CapType::kPageTable;
  EXPECT_EQ(db.InsertRemote(pt).err, CapErr::kBadType);
  Capability disp;
  disp.type = CapType::kDispatcher;
  EXPECT_EQ(db.InsertRemote(disp).err, CapErr::kBadType);
}

TEST(CapTypes, TransferabilityMatrix) {
  EXPECT_TRUE(TransferableType(CapType::kFrame));
  EXPECT_TRUE(TransferableType(CapType::kRam));
  EXPECT_TRUE(TransferableType(CapType::kEndpoint));
  EXPECT_FALSE(TransferableType(CapType::kPageTable));
  EXPECT_FALSE(TransferableType(CapType::kCNode));
  EXPECT_FALSE(TransferableType(CapType::kDispatcher));
}

// Property sweep: retyping N frames then revoking restores the initial state
// for every (size, count) combination.
class RetypeRevokeProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

TEST_P(RetypeRevokeProperty, RoundTripRestoresState) {
  auto [child_bytes, count] = GetParam();
  CapDb db;
  CapId root = db.InstallRoot(0, 64 * kMiB);
  std::uint64_t before = db.Digest();
  auto r = db.Retype(root, CapType::kFrame, child_bytes, count);
  if (child_bytes * count <= 64 * kMiB) {
    ASSERT_EQ(r.err, CapErr::kOk);
    ASSERT_EQ(db.Revoke(root), CapErr::kOk);
  } else {
    ASSERT_EQ(r.err, CapErr::kBadRange);
  }
  EXPECT_EQ(db.Digest(), before);
  EXPECT_EQ(db.LiveCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RetypeRevokeProperty,
    ::testing::Combine(::testing::Values(4096, 65536, kMiB, 32 * kMiB),
                       ::testing::Values(1, 2, 7, 64, 4096)));

}  // namespace
}  // namespace mk::caps
