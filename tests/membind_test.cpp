// topo::MemBind / topo::NumaBuffer: node-targeted allocation, residency
// queries, migration, and — most importantly for CI — the portable
// fallback paths (NUMA-less hosts, fixture nodes beyond the host,
// forced emulation via ORWL_MEMBIND=emulate). Storage tests run on both
// lanes: allocate() (heap storage bound by construction on one-node
// hosts) and the mmap + mbind/move_pages lane, which one-node hosts reach
// only through detail::allocate_mapped.
#include "topo/membind.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "support/env.hpp"
#include "topo/machines.hpp"

namespace {

using orwl::topo::MemBind;
using orwl::topo::NumaBuffer;

TEST(MemBind, PageSizeIsSane) {
  EXPECT_GE(MemBind::page_size(), 512u);
  EXPECT_EQ(MemBind::page_size() % 512, 0u);
}

/// How a test's storage is made.
struct Lane {
  const char* name;
  MemBind (*allocate)(std::size_t bytes, int node);
};

MemBind allocate_default(std::size_t bytes, int node) {
  return MemBind::allocate(bytes, node);
}

const Lane kLanes[] = {
    {"allocate", &allocate_default},
    {"mapped", &orwl::topo::detail::allocate_mapped},
};

class MemBindLane : public ::testing::TestWithParam<Lane> {
 protected:
  MemBind allocate(std::size_t bytes, int node = MemBind::kAnyNode) const {
    return GetParam().allocate(bytes, node);
  }
};

INSTANTIATE_TEST_SUITE_P(Lanes, MemBindLane, ::testing::ValuesIn(kLanes),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

/// First real node of the host (ids can be sparse; node 0 may be absent).
int host_node() { return MemBind::host_node_ids().front(); }

bool one_node_host() { return MemBind::host_node_count() == 1; }

bool page_aligned(const std::byte* p) {
  return reinterpret_cast<std::uintptr_t>(p) % MemBind::page_size() == 0;
}

TEST_P(MemBindLane, AllocateZeroInitializedAndPageAligned) {
  const std::size_t bytes = 3 * MemBind::page_size() + 17;
  MemBind m = allocate(bytes);
  ASSERT_NE(m.data(), nullptr);
  EXPECT_EQ(m.size(), bytes);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.bound_node(), MemBind::kAnyNode);
  EXPECT_TRUE(page_aligned(m.data())) << "typed views rely on it";
  for (std::size_t i = 0; i < bytes; ++i) {
    ASSERT_EQ(m.data()[i], std::byte{0}) << "byte " << i;
  }
}

TEST_P(MemBindLane, HostNodeBindingIsReal) {
  // A binding the host can honour is real on every lane: physically on a
  // mapping, by construction for heap storage on a one-node host.
  const int node = host_node();
  const bool usable = MemBind::numa_syscalls_available();
  MemBind m = allocate(2 * MemBind::page_size() + 100, node);
  ASSERT_NE(m.data(), nullptr);
  std::memset(m.data(), 0x3c, m.size());
  EXPECT_EQ(m.bound_node(), node);
  EXPECT_EQ(m.emulated(), !usable);
  EXPECT_EQ(m.resident_node(), node);
  const std::vector<int> pages = m.page_nodes();
  EXPECT_EQ(pages.size(), 3u);
  for (int n : pages) EXPECT_EQ(n, node);
  if (one_node_host() && std::string(GetParam().name) == "allocate") {
    EXPECT_EQ(m.capacity(), m.size())
        << "one-node hosts allocate heap storage, not a mapping";
  }

  EXPECT_TRUE(m.migrate_to(node)) << "repeat bind to the same node";
  EXPECT_EQ(m.emulated(), !usable);
  EXPECT_EQ(m.data()[m.size() - 1], std::byte{0x3c});

  EXPECT_TRUE(m.migrate_to(MemBind::kAnyNode));
  EXPECT_TRUE(m.emulated());
  if (one_node_host() && usable) {
    EXPECT_EQ(m.resident_node(), node)
        << "unbound pages of a one-node host are on its node";
  }
}

TEST(MemBind, EmptyAllocation) {
  MemBind m = MemBind::allocate(0, 2);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.data(), nullptr);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.bound_node(), 2);  // intent is recorded even when empty
  EXPECT_TRUE(m.page_nodes().empty());
  EXPECT_EQ(m.resident_node(), MemBind::kAnyNode);
}

TEST(MemBind, MoveTransfersOwnership) {
  MemBind a = MemBind::allocate(4096, 1);
  std::byte* p = a.data();
  MemBind b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_EQ(b.bound_node(), 1);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd state
  MemBind c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
}

TEST_P(MemBindLane, BindingIntentIsQueryableEvenWithoutRealNuma) {
  // A fixture node far beyond any plausible host: the binding must be
  // recorded tag-only and every query must answer with the intent — this
  // is what keeps fixture-topology programs deterministic on 1-node CI.
  // Past the highest *id*, not the count: node ids can be sparse, so
  // count+3 could name a real node on offlined/CXL layouts.
  const int node = MemBind::host_node_ids().back() + 3;
  MemBind m = allocate(2 * MemBind::page_size(), node);
  ASSERT_NE(m.data(), nullptr);
  std::memset(m.data(), 0x5a, m.size());  // touch so pages exist
  EXPECT_EQ(m.bound_node(), node);
  EXPECT_TRUE(m.emulated());
  EXPECT_EQ(m.resident_node(), node);
  for (int n : m.page_nodes()) EXPECT_EQ(n, node);
}

TEST(MemBind, ForcedEmulationFallback) {
  orwl::support::ScopedEnv force(orwl::topo::kMemBindEnvVar, "emulate");
  EXPECT_FALSE(MemBind::numa_syscalls_available());
  MemBind m = MemBind::allocate(1 << 16, 2);
  ASSERT_NE(m.data(), nullptr);
  EXPECT_TRUE(m.emulated());
  EXPECT_EQ(m.bound_node(), 2);
  EXPECT_TRUE(page_aligned(m.data()));
  std::memset(m.data(), 0x7f, m.size());  // heap block must be writable
  EXPECT_EQ(m.data()[1000], std::byte{0x7f});
  EXPECT_TRUE(m.migrate_to(0));
  EXPECT_EQ(m.bound_node(), 0);
  EXPECT_EQ(m.resident_node(), 0);
  const auto nodes = m.page_nodes();
  EXPECT_EQ(nodes.size(),
            (m.size() + MemBind::page_size() - 1) / MemBind::page_size());
  for (int n : nodes) EXPECT_EQ(n, 0);
  // Emulation wins over the one-node rule: the host's own node is
  // tag-only too.
  EXPECT_TRUE(m.migrate_to(host_node()));
  EXPECT_TRUE(m.emulated());
  MemBind h = MemBind::allocate(64, host_node());
  EXPECT_TRUE(h.emulated());
}

TEST_P(MemBindLane, MigratePreservesContents) {
  MemBind m = allocate(2 * MemBind::page_size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<std::byte>(i * 131u);
  }
  EXPECT_TRUE(m.migrate_to(host_node()));
  EXPECT_EQ(m.bound_node(), host_node());
  EXPECT_EQ(m.emulated(), !MemBind::numa_syscalls_available());
  for (std::size_t i = 0; i < m.size(); ++i) {
    ASSERT_EQ(m.data()[i], static_cast<std::byte>(i * 131u)) << i;
  }
  // Back to unbound: always succeeds, clears the intent.
  EXPECT_TRUE(m.migrate_to(MemBind::kAnyNode));
  EXPECT_EQ(m.bound_node(), MemBind::kAnyNode);
}

TEST(MemBind, HostIntrospection) {
  EXPECT_GE(MemBind::host_node_count(), 1);
  const std::vector<int> ids = MemBind::host_node_ids();
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(MemBind::host_node_count()));
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  const int node = MemBind::node_of_cpu(0);
  EXPECT_GE(node, -1);
  EXPECT_LT(node, MemBind::host_node_count() + 64);
  EXPECT_EQ(MemBind::node_of_cpu(-1), -1);
}

TEST(MemBind, NumaNodeOfPuUsesTheFixtureTopology) {
  const orwl::topo::Topology t = orwl::topo::make_numa(2, 2, 1);
  ASSERT_EQ(t.num_pus(), 4u);
  EXPECT_EQ(numa_node_of_pu(t, t.pu_at(0)->os_index), 0);
  EXPECT_EQ(numa_node_of_pu(t, t.pu_at(1)->os_index), 0);
  EXPECT_EQ(numa_node_of_pu(t, t.pu_at(2)->os_index), 1);
  EXPECT_EQ(numa_node_of_pu(t, t.pu_at(3)->os_index), 1);
  EXPECT_EQ(numa_node_of_pu(t, 9999), -1);

  const orwl::topo::Topology flat = orwl::topo::make_flat(4);
  EXPECT_EQ(numa_node_of_pu(flat, flat.pu_at(0)->os_index), -1)
      << "no NUMA level => no node, callers skip binding";

  EXPECT_EQ(numa_node_of_pu(orwl::topo::Topology{}, 0), -1);
}

// ------------------------------------------------------- NumaBuffer ----

TEST(NumaBuffer, ResizeZeroInitializesAndReuses) {
  NumaBuffer buf;
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
  buf.resize(1000);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 1000u);
  std::memset(buf.data(), 0xff, buf.size());
  buf.resize(500);  // shrink: storage reused, used prefix re-zeroed
  EXPECT_EQ(buf.size(), 500u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf.data()[i], std::byte{0}) << i;
  }
  buf.resize(0);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(NumaBuffer, BindIsStickyAcrossResize) {
  orwl::support::ScopedEnv force(orwl::topo::kMemBindEnvVar, "emulate");
  NumaBuffer buf;
  EXPECT_TRUE(buf.bind_to(3));  // binding an empty buffer records intent
  EXPECT_EQ(buf.migrations(), 0u) << "no storage yet, nothing migrated";
  buf.resize(4096);
  EXPECT_EQ(buf.node(), 3);
  EXPECT_EQ(buf.resident_node(), 3);
  buf.resize(1 << 16);  // grow: fresh allocation must stay on the node
  EXPECT_EQ(buf.node(), 3);
  EXPECT_EQ(buf.resident_node(), 3);
  EXPECT_TRUE(buf.emulated());
}

/// NumaBuffer under ORWL_MEMBIND=emulate (true) and on the host's own
/// backend (false).
class NumaBufferRebind : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Backends, NumaBufferRebind, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "emulate"
                                                         : "host");
                         });

TEST_P(NumaBufferRebind, RebindMigratesLiveStorage) {
  const bool emulate = GetParam();
  std::optional<orwl::support::ScopedEnv> force;
  if (emulate) force.emplace(orwl::topo::kMemBindEnvVar, "emulate");
  const int host = host_node();
  const int fixture = MemBind::host_node_ids().back() + 1;
  NumaBuffer buf;
  buf.resize(8192);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf.data()[i] = static_cast<std::byte>(i * 7u);
  }
  const auto contents_kept = [&] {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (buf.data()[i] != static_cast<std::byte>(i * 7u)) return false;
    }
    return true;
  };
  EXPECT_TRUE(buf.bind_to(host));
  EXPECT_EQ(buf.migrations(), 1u);
  EXPECT_TRUE(contents_kept());
  EXPECT_EQ(buf.emulated(),
            emulate || !MemBind::numa_syscalls_available());
  EXPECT_EQ(buf.resident_node(), host);
  EXPECT_FALSE(buf.bind_to(host)) << "already there: no change, no migration";
  EXPECT_EQ(buf.migrations(), 1u);
  EXPECT_TRUE(buf.bind_to(fixture));
  EXPECT_EQ(buf.migrations(), 2u);
  EXPECT_EQ(buf.node(), fixture);
  EXPECT_EQ(buf.resident_node(), fixture);
  EXPECT_TRUE(buf.emulated()) << "a fixture-only node is tag-only";
  EXPECT_TRUE(contents_kept());
}

TEST(NumaBuffer, ResetKeepsTheBinding) {
  NumaBuffer buf;
  buf.bind_to(2);
  buf.resize(4096);
  buf.reset();
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.node(), 2) << "a later resize must land on the node again";
  buf.resize(64);
  EXPECT_EQ(buf.node(), 2);
}

// ------------------------------------------------------- huge pages -----

TEST(HugePages, RequestFallsBackTransparently) {
  // Whatever the host provides — a hugetlb pool, none, or no Linux at
  // all — a huge-page request must always yield a usable zeroed buffer;
  // only the backing differs. (CI runners have no reserved hugepages, so
  // this exercises exactly the fallback lane users hit by default.)
  const std::size_t hps = MemBind::huge_page_size();
  const std::size_t bytes =
      hps > 0 ? hps + 128 : 4 * MemBind::page_size();
  MemBind m = MemBind::allocate(bytes, MemBind::kAnyNode, /*huge=*/true);
  ASSERT_NE(m.data(), nullptr);
  EXPECT_EQ(m.size(), bytes);
  for (std::size_t i = 0; i < bytes; i += 97) {
    ASSERT_EQ(m.data()[i], std::byte{0}) << "byte " << i;
  }
  if (m.huge_pages()) {
    // Honored requests round the capacity to whole huge pages.
    EXPECT_GE(m.capacity(), hps);
    EXPECT_EQ(m.capacity() % hps, 0u);
    m.data()[bytes - 1] = std::byte{7};  // touch: must not SIGBUS
  }
}

TEST(HugePages, SmallRequestsNeverUseHugePages) {
  MemBind m = MemBind::allocate(64, MemBind::kAnyNode, /*huge=*/true);
  EXPECT_FALSE(m.huge_pages()) << "sub-huge-page sizes stay on base pages";
}

TEST(HugePages, EmulationForcesTheFallback) {
  orwl::support::ScopedEnv emu(orwl::topo::kMemBindEnvVar, "emulate");
  const std::size_t hps = MemBind::huge_page_size();
  MemBind m = MemBind::allocate(hps > 0 ? hps : 1 << 20,
                                MemBind::kAnyNode, /*huge=*/true);
  ASSERT_NE(m.data(), nullptr);
  EXPECT_FALSE(m.huge_pages());
}

TEST(HugePages, NumaBufferFlagControlsReuseAndBinding) {
  NumaBuffer buf;
  buf.bind_to(1);
  buf.resize(8192);
  std::memset(buf.data(), 0x5a, 64);
  // Flipping the request forces a reallocation (the request changed),
  // keeps the sticky node, and re-zeroes like any resize.
  buf.set_huge_pages(true);
  buf.resize(8192);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(buf.node(), 1);
  EXPECT_EQ(buf.data()[0], std::byte{0});
  // With the request unchanged, storage is reused again.
  std::byte* before = buf.data();
  buf.resize(4096);
  EXPECT_EQ(buf.data(), before);
}

}  // namespace
