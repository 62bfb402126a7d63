#!/usr/bin/env bash
# Prints the ctest -R regex of the suites that must pass under ASan+UBSan
# with leak detection on (CI's "Fault suite with leak detection"):
#
#   ctest --test-dir build -j4 --output-on-failure -R "$(tests/leak_checked_suites.sh)"
#
# In, and why:
# - The fault, determinism, channel, monitor, net and stack suites: recovery
#   paths tear down timed-out waiters and excluded cores, exactly where frame
#   and registration leaks would hide.
# - Executor.*: a queued event node that is never freed fails here. The
#   literal dot keeps out NicRxLoop.ParksOnTheInterruptAndTheExecutorDrains,
#   which leaves its RX loop parked by design.
# - TcpRetransmit.*, TcpLossSweep.*, ConnLifecycle.*, FailoverRst.* and
#   LegacyTcp.*: the segment path both TCP disciplines share (retransmit,
#   loss, lifecycle, RST and legacy timeouts).
# - TimerWheel.* and ConnTable.*: every per-connection TCP timer, on both
#   disciplines, lives in the wheel's node pool and every connection in the
#   table, so a node or entry never freed is a leak here.
# - Db.* and DbShard.*: the SQL engine's column arrays and the replica
#   cluster. Both are anchored; CapDb.* has its own alternative.
# - Coherence, Workload and MapReduce.*: simulated-memory owners
#   (hw::LineRegion) live in coroutine frames, so a frame never destroyed is
#   a leak here. The first two are unanchored on purpose: they also select
#   Table2/CoherenceCalibration.*, Platforms/CoherenceFuzz.* and
#   AllWorkloads/WorkloadInvariance.*.
# - RecoveryConfig.*, Membership.*, Nic.* and SharedKernelLoopback.*: the
#   recovery predicates, the monitor membership service, the NIC's interrupt
#   routing and the loopback baseline. The literal dots keep out NicRxLoop.*
#   and ClusterMembershipTest.*.
# - CapDb.*, CapTypes.*, RetypeRevokeProperty.*, FactStore.*, Skb.* and
#   VSpace.*: they own the capability derivation tree, the SKB's fact tuples
#   and the page-table nodes.
# - Integration.Boot*, Integration.UserLevel* and Integration.Concurrent*:
#   they boot the whole machine.
#
# Out, and why: each leaves a service loop's coroutine frame parked at exit
# by design, which leak detection reports.
# - HttpKeepAliveEndToEnd.* and HttpServerEndToEnd.*: the HttpServer::Serve
#   accept loop.
# - Store.*: a halted store leader's replica loops.
# - DbFailover.*, DcFabricTest.*, ClusterMembershipTest.* and
#   ClusterTopologyTest.*: a killed or replaced replica's loop, or an RX,
#   pump or UDP receive loop (see the FOUND line about them in CHANGES.md).
# - Integration.ServiceBackedByReplicatedFsUnderHotplug: its blocked waiters.
set -euo pipefail

alternatives=(
  fault Fault determinism Determinism channel_fuzz Channel monitor Monitor net Stack
  'Executor\.'
  'TcpRetransmit\.' 'TcpLossSweep\.' 'ConnLifecycle\.' 'FailoverRst\.' 'LegacyTcp\.'
  'TimerWheel\.' 'ConnTable\.'
  '^Db\.' '^DbShard\.'
  Coherence Workload 'MapReduce\.'
  'RecoveryConfig\.' 'Membership\.' 'Nic\.' 'SharedKernelLoopback\.'
  'CapDb\.' 'CapTypes\.' 'RetypeRevokeProperty\.' 'FactStore\.' 'Skb\.' 'VSpace\.'
  'Integration\.(Boot|UserLevel|Concurrent)'
)
(IFS='|'; echo "${alternatives[*]}")
